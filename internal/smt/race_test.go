//go:build race

package smt

// raceEnabled reports a -race build, where the detector's own allocations
// make testing.AllocsPerRun meaningless.
const raceEnabled = true
