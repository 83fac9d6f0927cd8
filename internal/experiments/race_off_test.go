//go:build !race

package experiments

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
