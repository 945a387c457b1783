//go:build race

package network

// raceEnabled reports whether the race detector is on. It makes sync.Pool
// drop items at random, so allocation counts stop being repeatable.
const raceEnabled = true
