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

// TestSynctestEveryRunsOnItsTicker runs Every on its real ticker in a
// bubble: exactly 25 rounds in 250 fake ms at a 10 ms interval. The bubble
// returns only once the loop has exited and stopped its ticker.
func TestSynctestEveryRunsOnItsTicker(t *testing.T) {
	synctest.Run(func() {
		rounds := 0
		l := Every(10*time.Millisecond, func() { rounds++ })
		time.Sleep(250 * time.Millisecond)
		synctest.Wait() // the loop takes the tick due at 250 ms
		l.Stop()
		if rounds != 25 {
			t.Errorf("%d rounds in 250 fake ms at a 10ms interval, want exactly 25", rounds)
		}
	})
}

// TestSynctestEveryStopWaitsForBlockedRound: a Stop issued while a round
// is blocked returns at the fake instant the round ends, not before, and
// the tick that came due meanwhile starts no round. A loop that let the
// tick race Stop would run that round half the time, so the test runs
// the scenario ten times.
func TestSynctestEveryStopWaitsForBlockedRound(t *testing.T) {
	synctest.Run(func() {
		for trial := 0; trial < 10; trial++ {
			release := make(chan struct{})
			calls := 0
			l := Every(10*time.Millisecond, func() {
				if calls++; calls == 1 {
					<-release
				}
			})
			time.Sleep(10 * time.Millisecond)
			synctest.Wait() // round 1 is blocked on release
			stopped := make(chan struct{})
			go func() {
				l.Stop()
				close(stopped)
			}()
			time.Sleep(time.Second)
			select {
			case <-stopped:
				t.Error("Stop returned while its round was blocked")
			default:
			}
			start := time.Now()
			close(release)
			<-stopped
			if waited := time.Since(start); waited != 0 {
				t.Errorf("Stop returned %v after the round ended, want at that instant", waited)
			}
			if calls != 1 {
				t.Errorf("trial %d: %d rounds ran, want 1: a round started after Stop", trial, calls)
			}
		}
	})
}
