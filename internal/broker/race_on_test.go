//go:build race

package broker

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
