package gopim_test

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"gopim"
)

// trainingFreeIDs are the experiments that train no model. At paper
// scale they run in seconds, so tier-1 holds their sections of the
// checked-in full-scale output to the byte.
var trainingFreeIDs = []string{
	"abl", "fig4", "fig5", "fig6", "fig7", "fig13", "fig14", "fig15", "fig17", "tab6",
}

// fullOutputSections splits experiments_full_output.txt into its
// per-experiment sections, keyed by id: each runs from its "=== id"
// header up to the next header, trailing blank line included, which is
// exactly what one rendered Result prints.
func fullOutputSections(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("experiments_full_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{}
	var id string
	var cur strings.Builder
	flush := func() {
		if id != "" {
			sections[id] = cur.String()
		}
		cur.Reset()
	}
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "=== "); ok {
			flush()
			id, _, _ = strings.Cut(rest, " ")
		}
		cur.WriteString(line)
	}
	flush()
	return sections
}

// firstDiffLine reports the first line at which want and got differ.
func firstDiffLine(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d of the section:\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return "no differing line"
}

// The paper-scale numbers of every training-free experiment must match
// experiments_full_output.txt (a full seed-1 `gopim all`) section by
// section. A change that moves a printed number fails here, naming the
// section and its first differing line; a change that moves one on
// purpose regenerates the file with `gopim all > experiments_full_output.txt`.
func TestTrainingFreeSectionsMatchFullOutput(t *testing.T) {
	sections := fullOutputSections(t)
	results, err := gopim.RunExperiments(trainingFreeIDs, gopim.ExperimentOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		want, ok := sections[res.ID]
		if !ok {
			t.Errorf("experiments_full_output.txt has no %s section", res.ID)
			continue
		}
		var buf bytes.Buffer
		if err := res.Render(&buf); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != want {
			t.Errorf("%s: paper-scale output drifted from experiments_full_output.txt at %s",
				res.ID, firstDiffLine(want, got))
		}
	}
}
