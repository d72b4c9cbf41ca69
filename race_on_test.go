//go:build race

package gopim_test

// raceEnabled reports whether the test binary runs under the race
// detector, whose ~10× slowdown puts the training-heavy sweeps past the
// test timeout (the experiments package skips the same harnesses).
const raceEnabled = true
