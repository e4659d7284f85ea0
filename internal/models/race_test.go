//go:build race

package models

// raceEnabled skips allocation pins under the race detector, as the eval
// package's pins are skipped: they describe the uninstrumented build.
const raceEnabled = true
