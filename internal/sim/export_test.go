package sim

import "sync/atomic"

// Pending reports whether an expiry is currently scheduled. Only the tests
// ask; product code re-arms a Timer without looking.
func (t *Timer) Pending() bool {
	t.e.lock()
	defer t.e.unlock()
	st := atomic.LoadUint32(&t.s.state)
	return st == slotQueued || st == slotBatched
}
