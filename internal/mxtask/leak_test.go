package mxtask

import (
	"os"
	"testing"

	"mxtasking/internal/testleak"
)

// TestMain guards the whole suite against goroutine leaks: every worker
// a test starts, parked or not, must be gone once the tests pass. See internal/testleak.
func TestMain(m *testing.M) {
	os.Exit(testleak.Main(m))
}
