package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"gopim/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// The Chrome trace export is an interchange format: viewers and the CI
// diff tooling parse it byte-for-byte, so its serialization must not
// drift with refactors. A fixed schedule must render to exactly the
// checked-in JSON; regenerate deliberately with
//
//	go test ./internal/trace -run ChromeTraceGolden -update
func TestChromeTraceGolden(t *testing.T) {
	s := Simulate(Input{
		TimesNS:      []float64{100, 200, 150},
		Replicas:     []int{1, 2, 1},
		MicroBatches: 4,
	})
	var buf bytes.Buffer
	if err := obs.WriteTraceJSON(&buf, s.ChromeTraceEvents([]string{"CO1", "AG1", "LC1"})); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Chrome trace JSON drifted from golden file %s\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}
