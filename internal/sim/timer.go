package sim

import "fmt"

// Timer is a rescheduleable one-shot event with a pre-allocated callback:
// the pooled-payload primitive for hot schedule/cancel paths. Where the
// Handle pattern allocates a fresh closure per schedule (retry timers,
// per-request timeouts), a Timer holds its callback in its own slot and
// Reset/Stop cycle that slot through the queue with zero steady-state
// allocations.
//
// Reset and Stop take the engine lock and settle a race with the batch
// about to fire the timer by the same claim as Handle.Cancel. A Timer is
// still owned by a single goroutine — scenario code driving the clock, or
// callbacks firing on the clock-driving goroutine: re-arming it from a
// foreign goroutine while its callback may be firing is inherently racy
// (the documented fired-event no-op), and the per-schedule Handle already
// serves that case. The race detector will flag cross-goroutine misuse.
type Timer struct {
	e *Engine
	s slot
}

// NewTimer returns a stopped Timer that will invoke fire each time it
// expires. Arm it with Reset.
func NewTimer(e *Engine, fire func()) *Timer {
	return &Timer{e: e, s: slot{fire: fire}}
}

// Reset arms the timer to fire d seconds from now, first cancelling any
// still-pending expiry. Negative d panics. Unlike time.Timer.Reset there
// is no drained-channel subtlety: the callback either already ran (then
// this is a fresh schedule) or is cancelled here and never runs.
func (t *Timer) Reset(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative timer delay %v", d))
	}
	t.e.lock()
	defer t.e.unlock()
	t.e.cancel(&t.s, t.s.seq)
	t.e.schedule(t.e.now+Time(d), &t.s)
}

// ResetAt arms the timer to fire at absolute time at. See Reset.
func (t *Timer) ResetAt(at Time) {
	t.e.lock()
	defer t.e.unlock()
	t.e.cancel(&t.s, t.s.seq)
	t.e.schedule(at, &t.s)
}

// Stop cancels the pending expiry, if any, and reports whether one was
// pending.
func (t *Timer) Stop() bool {
	t.e.lock()
	defer t.e.unlock()
	return t.e.cancel(&t.s, t.s.seq)
}
