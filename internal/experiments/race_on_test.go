//go:build race

package experiments

// raceEnabled reports a -race build, whose sync.Pool drops items at random
// by design, so allocation counts through a pool are not a normal build's.
const raceEnabled = true
