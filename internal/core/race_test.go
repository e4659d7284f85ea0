//go:build race

package core

// raceEnabled skips allocation pins under the race detector, which
// instruments memory accesses and inflates allocation counts.
const raceEnabled = true
