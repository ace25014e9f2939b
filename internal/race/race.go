//go:build race

// Package race says whether the binary was built with the race detector,
// for tests whose verdict depends on sync.Pool keeping what was Put: the
// detector makes every Pool drop a quarter of its Puts at random.
package race

// Enabled is true under -race.
const Enabled = true
