//go:build race

package baselines

// raceEnabled skips allocation pins under the race detector, which disables
// sync.Pool reuse at random and inflates AllocsPerRun counts.
const raceEnabled = true
