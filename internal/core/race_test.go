//go:build race

package core

// The race detector makes sync.Pool drop a random share of Puts, so the
// byte-accounting tests of pooled buffers do not hold under -race.
func init() { raceEnabled = true }
