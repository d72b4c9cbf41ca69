package bench

import (
	"gopim/internal/graphgen"
	"gopim/internal/tensor"
)

// KernelsSuite is the Config.Suite value selecting the SpMM
// micro-suite: one group per configured dataset, each multiplying that
// dataset's normalised adjacency by a dense operand, so `gopim bench
// -suite kernels` times aggregation on every graph shape at every
// worker count with the same warmup/repeat machinery as the regression
// suite.
const KernelsSuite = "kernels"

// kernelDenseCols is the dense operand width of the micro-suite — the
// hidden width the accuracy experiments aggregate at.
const kernelDenseCols = 64

// kernelGroups builds the micro-suite: synthesize each dataset once,
// then one benchGroup per graph (the product is recomputed, never the
// setup).
func kernelGroups(datasets []graphgen.Dataset, seed int64, fast bool) []benchGroup {
	maxV := 4000
	if fast {
		maxV = 1200
	}
	groups := make([]benchGroup, 0, len(datasets))
	for _, d := range datasets {
		inst := d.Synthesize(seed+int64(len(d.Name)), maxV)
		adj := inst.Graph.NormAdj()
		in := tensor.New(adj.Cols, kernelDenseCols)
		for j := range in.Data {
			in.Data[j] = float64(j%97) / 97
		}
		out := tensor.New(adj.Rows, kernelDenseCols)
		groups = append(groups, benchGroup{
			name: "kernels-" + d.Name,
			body: func() error {
				adj.MulDenseInto(out, in)
				return nil
			},
		})
	}
	return groups
}
