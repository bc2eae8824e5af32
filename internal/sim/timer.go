package sim

import "fmt"

// Timer is a rescheduleable one-shot event with a pre-allocated callback:
// the pooled-payload primitive for hot schedule/cancel paths. Where the
// Handle pattern allocates a fresh closure per schedule (retry timers,
// per-request timeouts), a Timer allocates once at NewTimer and then
// Reset/Stop cycle it through the queue with zero steady-state allocations
// — the heap stores the same func value every time.
//
// A Timer is owned by a single goroutine: scenario code driving the clock,
// or callbacks firing on the clock-driving goroutine. Its pending state is
// deliberately not shared-mode-safe — cancelling from a foreign goroutine
// while the callback may be firing is inherently racy (the documented
// fired-event no-op), and the per-schedule Handle already serves that
// case. The race detector will flag cross-goroutine misuse.
type Timer struct {
	e    *Engine
	fire func() // wrapper around the user callback; allocated once

	seq     uint64
	pending bool
}

// NewTimer returns a stopped Timer that will invoke fire each time it
// expires. Arm it with Reset.
func NewTimer(e *Engine, fire func()) *Timer {
	t := &Timer{e: e}
	t.fire = func() {
		t.pending = false
		fire()
	}
	return t
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
	if t.pending {
		t.e.cancel(t.seq)
	}
	t.seq = t.e.at(t.e.now+Time(d), t.fire).seq
	t.pending = true
}

// ResetAt arms the timer to fire at absolute time at. See Reset.
func (t *Timer) ResetAt(at Time) {
	t.e.lock()
	defer t.e.unlock()
	if t.pending {
		t.e.cancel(t.seq)
	}
	t.seq = t.e.at(at, t.fire).seq
	t.pending = true
}

// Stop cancels the pending expiry, if any, and reports whether one was
// pending.
func (t *Timer) Stop() bool {
	t.e.lock()
	defer t.e.unlock()
	if !t.pending {
		return false
	}
	t.e.cancel(t.seq)
	t.pending = false
	return true
}
