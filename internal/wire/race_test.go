//go:build race

package wire_test

// The race detector instruments allocation, so allocation counts are
// only asserted in ordinary builds.
func init() { raceEnabled = true }
