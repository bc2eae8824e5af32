package cloudapi

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestMain fails the package when a test leaves a sim clock loop or a
// wall loop (fanout.Every: the clock coordinator) running: a follower,
// driver or coordinator nobody stopped keeps advancing its engine or
// pushing, and its ticker firing, under every test that follows. A loop
// that Stop has already waited for may still be returning, so it gets
// yields to leave the stack dump.
func TestMain(m *testing.M) {
	code := m.Run()
	for tries := 0; code == 0; tries++ {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "sim.(*source).loop") && !strings.Contains(stacks, "fanout.Every") {
			break
		}
		if tries == 1000 {
			fmt.Fprintf(os.Stderr, "a clock loop outlived the tests; stop every StartFollower, StartDriver and StartClockCoordinator in t.Cleanup:\n%s", stacks)
			code = 1
		}
		runtime.Gosched()
	}
	os.Exit(code)
}
