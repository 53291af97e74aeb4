//go:build race

package cluster

// raceEnabled reports whether the race detector is compiled in: under it
// sync.Pool drops what it is given, so the pooled fan-out's allocation pin
// skips itself.
const raceEnabled = true
