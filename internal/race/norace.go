//go:build !race

package race

// Enabled is true under -race.
const Enabled = false
