//go:build race

package mpisim

// raceEnabled reports whether the race detector is on; the heaviest
// property-test configurations are trimmed there.
const raceEnabled = true
