//go:build goexperiment.synctest

package fanout

import (
	"context"
	"testing"
	"testing/synctest"
	"time"
)

// TestSynctestEachCancelsAtDeadline runs Each with one hung task in a
// synctest bubble, so the per-task deadline is measured on a fake wall
// clock: the hung task sees its context end at exactly 20 fake ms, Each
// returns at that instant with the task incomplete, and a task still
// running after its deadline holds Run until it returns.
// Run with GOEXPERIMENT=synctest go test -run Synctest ./internal/fanout/.
func TestSynctestEachCancelsAtDeadline(t *testing.T) {
	synctest.Run(func() {
		var cut time.Duration
		start := time.Now()
		res, done := Each(context.Background(), 2, 20*time.Millisecond, 2, func(ctx context.Context, i int) int {
			if i == 0 {
				<-ctx.Done()
				cut = time.Since(start)
				return -1
			}
			return 1
		})
		if elapsed := time.Since(start); cut != 20*time.Millisecond || elapsed != 20*time.Millisecond {
			t.Errorf("the task saw its context end after %v and Each returned after %v, want both exactly 20ms", cut, elapsed)
		}
		if done[0] || res[0] != 0 || !done[1] || res[1] != 1 {
			t.Errorf("res %v done %v, want [0 1] [false true]", res, done)
		}

		// A task that keeps running past its deadline holds Run.
		release := make(chan struct{})
		returned := make(chan struct{})
		go func() {
			defer close(returned)
			Each(context.Background(), 1, 20*time.Millisecond, 1, func(ctx context.Context, _ int) int {
				<-ctx.Done()
				<-release
				return 0
			})
		}()
		time.Sleep(time.Second)
		synctest.Wait()
		select {
		case <-returned:
			t.Error("Run returned while its cancelled task was still running")
		default:
		}
		close(release)
		<-returned
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
