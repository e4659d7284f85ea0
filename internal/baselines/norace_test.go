//go:build !race

package baselines

const raceEnabled = false
