package tracker

import (
	"testing"

	"asymshare/internal/leakcheck"
)

// TestMain fails the package's test binary when a test leaves a
// goroutine running.
func TestMain(m *testing.M) { leakcheck.Main(m) }
