//go:build race

package attack

// The race detector slows the single-goroutine planner oracle tests
// about fifteenfold without checking anything they do; they run their
// short inputs under it.
func init() { raceBuild = true }
