//go:build goexperiment.synctest

package fanout

import (
	"testing"
	"testing/synctest"
	"time"
)

// TestSynctestEachAbandonsAtDeadline runs Each with one hung task in a
// synctest bubble, so the per-task deadline is measured on a fake wall
// clock: Each returns at exactly 20 fake ms, and once the hung task is
// released and has run to completion its late result has not landed.
// Run with GOEXPERIMENT=synctest go test -run Synctest ./internal/fanout/.
func TestSynctestEachAbandonsAtDeadline(t *testing.T) {
	synctest.Run(func() {
		release := make(chan struct{})
		finished := false
		start := time.Now()
		res, done := Each(2, 20*time.Millisecond, 2, func(i int) int {
			if i == 0 {
				<-release
				finished = true
				return -1
			}
			return 1
		})
		if elapsed := time.Since(start); elapsed != 20*time.Millisecond {
			t.Errorf("Each returned after %v, want exactly the 20ms deadline", elapsed)
		}
		close(release)
		synctest.Wait() // the abandoned task runs to completion
		if !finished {
			t.Fatal("the released task did not finish")
		}
		if done[0] || res[0] != 0 || !done[1] || res[1] != 1 {
			t.Errorf("res %v done %v, want [0 1] [false true]: the late result landed", res, done)
		}
	})
}
