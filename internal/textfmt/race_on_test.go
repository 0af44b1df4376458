//go:build race

package textfmt

// raceEnabled reports a -race build, where the long seeded comparison
// runs a smaller sample.
const raceEnabled = true
