package core

import (
	"fmt"
	"os"
	"testing"

	"mtvec/internal/stats"
)

// TestMain fails the package when any engine test booked a functional
// unit or the load pipe out of start order: every run in this package
// adds its busy intervals through one process-wide checked timeline
// path, so the count must still be zero after the last test.
func TestMain(m *testing.M) {
	code := m.Run()
	if n := stats.TimelineViolations(); n != 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d busy interval(s) booked out of start order (stats.TimelineViolations)\n", n)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}
