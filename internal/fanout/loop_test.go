package fanout

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestLoopStopWaitsForRoundInFlight: Stop returns only once the round it
// interrupted has finished, and may be called again, or on a nil Loop.
func TestLoopStopWaitsForRoundInFlight(t *testing.T) {
	var never *Loop
	never.Stop()

	entered := make(chan struct{})
	release := make(chan struct{})
	var calls, finished atomic.Int64
	l := Every(time.Millisecond, func() {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		finished.Add(1)
	})
	<-entered
	go func() {
		runtime.Gosched()
		close(release)
	}()
	l.Stop()
	if finished.Load() == 0 {
		t.Fatal("Stop returned before the round in flight finished")
	}
	l.Stop()
}

func TestRoundDeadline(t *testing.T) {
	for interval, want := range map[time.Duration]time.Duration{
		time.Millisecond:       100 * time.Millisecond,
		200 * time.Millisecond: 100 * time.Millisecond,
		300 * time.Millisecond: 150 * time.Millisecond,
		2 * time.Second:        time.Second,
	} {
		if got := RoundDeadline(interval); got != want {
			t.Errorf("RoundDeadline(%v) = %v, want %v", interval, got, want)
		}
	}
}
