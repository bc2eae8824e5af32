package telemetry

// Add adds n (negative deltas are dropped: counters only go up). Product
// code counts one event at a time with Inc; the tests build fixtures with
// Add.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}
