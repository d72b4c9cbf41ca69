package experiments

import (
	"fmt"

	"gopim/internal/graphgen"
	"gopim/internal/obs"
	"gopim/internal/simmemo"
)

// instanceCache memoizes synthesized training instances: the accuracy
// sweeps (tab5, fig16, faultsweep, cora) and the θ tuner all
// re-synthesize the same (dataset, seed, maxVertices) instance per
// sweep cell. Synthesis is deterministic in that tuple and bumps no
// Sim counters, so sharing is snapshot-neutral; instances are treated
// as read-only everywhere (training never mutates one, and the lazy
// NormAdj caches on Graph are sync.Once-guarded).
var instanceCache = simmemo.NewCache("instance", 128)

// instanceFor returns the instance for (d, seed, maxV) plus the memo
// key that uniquely identifies its content — the same key gcn.TrainMemo
// needs to reuse training runs on it.
func instanceFor(d graphgen.Dataset, seed int64, maxV int) (*graphgen.Instance, string) {
	key := fmt.Sprintf("%+v|%d|%d", d, seed, maxV)
	inst := simmemo.Do(instanceCache, key, nil, func(*obs.Tape) *graphgen.Instance {
		return d.Synthesize(seed, maxV)
	})
	return inst, key
}
