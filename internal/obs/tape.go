package obs

// Tape records the Sim counter increments of one computation so they
// can be applied again later. The memo layer (internal/simmemo) stores
// a computation's tape beside its value and replays it on every call,
// so a memo hit moves the counters exactly as recomputing would.
//
// A nil *Tape adds straight into the counters, which makes "no tape"
// the plain, unmemoized path. Increments to the same counter coalesce,
// so a tape stays a few entries long however hot the loop recording
// into it. A Tape is not safe for concurrent use while it records;
// once recorded it is only read, and Replay may run concurrently.
type Tape struct {
	adds []tapeAdd
}

type tapeAdd struct {
	c *Counter
	n int64
}

// Add records c += n, or applies it at once when t is nil.
func (t *Tape) Add(c *Counter, n int64) {
	if t == nil {
		c.Add(n)
		return
	}
	for i := range t.adds {
		if t.adds[i].c == c {
			t.adds[i].n += n
			return
		}
	}
	t.adds = append(t.adds, tapeAdd{c, n})
}

// Inc records c += 1.
func (t *Tape) Inc(c *Counter) { t.Add(c, 1) }

// Replay adds every recorded increment into dst: another tape, or the
// counters themselves when dst is nil.
func (t *Tape) Replay(dst *Tape) {
	for _, a := range t.adds {
		dst.Add(a.c, a.n)
	}
}
