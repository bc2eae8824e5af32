package datastore

import "slices"

// Test-only surface: accessors the tests assert through, and the site
// detach the repair test drives.

// Rev returns the store's current revision — what ListSince hands back so
// the next call sees only newer changes.
func (s *Store) Rev() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rev
}

// TotalBytes sums the stored replica sizes.
func (s *Store) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, r := range s.replicas {
		n += r.SizeBytes
	}
	return n
}

// Count reports how many replicas the store holds.
func (s *Store) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.replicas)
}

// Detach removes a site from the placement set: its replicas stop counting
// toward every dataset's factor, transfers touching it are aborted, and
// subsequent rounds repair the resulting under-replication on the
// remaining sites.
func (c *Coordinator) Detach(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	gone, ok := c.v.index[name]
	if !ok {
		return
	}
	c.sites = slices.Delete(slices.Clone(c.sites), gone, gone+1)
	v := newView(c.v.factor, c.sites)
	v.sites = slices.Delete(slices.Clone(c.v.sites), gone, gone+1)
	v.stats, v.links = c.v.stats, c.v.links
	for key, t := range c.v.inflight {
		if t.From != name && t.To != name {
			v.inflight[key] = t
		}
	}
	for key := range c.v.pinned {
		if key[1] != name {
			v.pinned[key] = true
		}
	}
	c.v = v
}
