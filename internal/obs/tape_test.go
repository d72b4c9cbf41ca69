package obs

import "testing"

// TestNilTapeAddsDirectly: a nil tape is the unmemoized path, so its
// increments land in the counter at once.
func TestNilTapeAddsDirectly(t *testing.T) {
	c := NewRegistry().NewCounter("tape.direct", Sim, "")
	var tp *Tape
	tp.Add(c, 3)
	tp.Inc(c)
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
}

// TestTapeReplayAccumulates: a recording tape leaves the counters
// alone; replaying it into a parent tape accumulates per counter, and
// the parent's replay applies the sum, as often as it is replayed.
func TestTapeReplayAccumulates(t *testing.T) {
	reg := NewRegistry()
	a := reg.NewCounter("tape.a", Sim, "")
	b := reg.NewCounter("tape.b", Sim, "")
	var child Tape
	child.Add(a, 2)
	child.Inc(b)
	child.Add(a, 3)
	if a.Value() != 0 || b.Value() != 0 {
		t.Fatalf("recording moved counters: a=%d b=%d", a.Value(), b.Value())
	}
	var parent Tape
	parent.Inc(a)
	child.Replay(&parent)
	child.Replay(&parent)
	if len(parent.adds) != 2 {
		t.Fatalf("parent holds %d entries, want one per counter (2)", len(parent.adds))
	}
	parent.Replay(nil)
	parent.Replay(nil)
	if a.Value() != 22 || b.Value() != 4 {
		t.Fatalf("a=%d b=%d, want 22 and 4", a.Value(), b.Value())
	}
}
