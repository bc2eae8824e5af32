package iaas

// Test-only surface: product code lists a user's instances; the tests also
// look one up by ID, terminated ones included.

// Instance looks up one instance, returning a point-in-time copy.
func (c *Cloud) Instance(id string) (*Instance, bool) {
	sh := c.topo.Load().bucket(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, ok := sh.inst[id]
	if !ok {
		return nil, false
	}
	cp := *i
	return &cp, true
}
