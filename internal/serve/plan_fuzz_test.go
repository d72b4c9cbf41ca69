package serve

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// planSeeds is the fuzz corpus: the validation suite's malformed
// bodies (TestPlanValidation) plus representative valid requests, so
// the fuzzer starts from both sides of every validation boundary.
func planSeeds() []string {
	return []string{
		// The 4xx surface of TestPlanValidation.
		``,
		`{"dataset":`,
		`{"dataset":"arxiv","bogus":1}`,
		`{}`,
		`{"dataset":"arxiv","graph":{"vertices":10,"avg_degree":2,"feature_dim":4}}`,
		`{"dataset":"imagenet"}`,
		`{"dataset":"arxiv","model":"TPU"}`,
		`{"graph":{"vertices":0,"avg_degree":2,"feature_dim":4}}`,
		fmt.Sprintf(`{"graph":{"vertices":%d,"avg_degree":2,"feature_dim":4}}`, MaxVertices+1),
		`{"graph":{"vertices":100,"avg_degree":-1,"feature_dim":4}}`,
		`{"graph":{"vertices":10,"avg_degree":11,"feature_dim":4}}`,
		`{"graph":{"vertices":100,"avg_degree":2,"feature_dim":0}}`,
		`{"graph":{"vertices":100,"avg_degree":2,"feature_dim":4,"layers":9}}`,
		`{"dataset":"arxiv","theta":1.5}`,
		`{"dataset":"arxiv","budget":-4}`,
		`{"dataset":"arxiv","budget":2000000000}`,
		`{"dataset":"arxiv","micro_batch":-2}`,
		`{"dataset":"arxiv","profile":"turbo"}`,
		`{"dataset":"ddi"}{"dataset":"arxiv"}`,
		`{"dataset":"ddi"} garbage`,
		// Valid requests the mutator can perturb.
		`{"dataset":"ddi"}`,
		`{"dataset":"arxiv","model":"GoPIM","theta":0.5,"budget":1000,"simulate":true}`,
		`{"graph":{"vertices":5000,"avg_degree":12.5,"feature_dim":128,"layers":3},"micro_batch":32}`,
		`{"dataset":"cora","use_predictor":true,"profile":"fast","explain":true}`,
		// JSON torture: numeric edge cases and nesting.
		`{"dataset":"arxiv","theta":1e309}`,
		`{"dataset":"arxiv","seed":-9223372036854775808}`,
		`{"graph":{"vertices":1,"avg_degree":1e-300,"feature_dim":1}}`,
		`[1,2,3]`,
		`"dataset"`,
		`{"graph":null}`,
	}
}

// FuzzDecodePlanRequest hammers the planning daemon's untrusted-input
// surface: whatever a churning client sends, decoding must never
// panic, must classify every rejection as a client error
// (badRequestError → HTTP 400, never a daemon crash or 500 for bad
// bytes), and must be deterministic — the same body always yields the
// same verdict and cache key.
func FuzzDecodePlanRequest(f *testing.F) {
	for _, s := range planSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		key1, err1 := decodePlanRequest(strings.NewReader(body))
		key2, err2 := decodePlanRequest(strings.NewReader(body))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic verdict for %q: %v vs %v", body, err1, err2)
		}
		if err1 != nil {
			if !errors.As(err1, &badRequestError{}) {
				t.Fatalf("rejection of %q is not a client error: %v", body, err1)
			}
			if err2.Error() != err1.Error() {
				t.Fatalf("nondeterministic error for %q: %q vs %q", body, err1, err2)
			}
			return
		}
		if key1 != key2 {
			t.Fatalf("nondeterministic cache key for %q: %+v vs %+v", body, key1, key2)
		}
	})
}
