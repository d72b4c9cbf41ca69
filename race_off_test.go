//go:build !race

package gopim_test

// raceEnabled: see race_on_test.go.
const raceEnabled = false
