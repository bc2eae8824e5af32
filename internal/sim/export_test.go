package sim

// Pending reports whether an expiry is currently scheduled. Only the tests
// ask; product code re-arms a Timer without looking.
func (t *Timer) Pending() bool {
	t.e.lock()
	defer t.e.unlock()
	return t.pending
}
