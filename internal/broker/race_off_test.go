//go:build !race

package broker

// raceEnabled reports whether the race detector instruments this build.
// The detector deliberately randomizes sync.Pool reuse to expose races,
// so pool-dependent allocation counts are only asserted without it.
const raceEnabled = false
