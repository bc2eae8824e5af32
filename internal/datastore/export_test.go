package datastore

import "strings"

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
	kept := c.sites[:0]
	for _, s := range c.sites {
		if s.Name() != name {
			kept = append(kept, s)
		}
	}
	c.sites = kept
	for key, t := range c.inflight {
		if t.From == name || t.To == name {
			delete(c.inflight, key)
		}
	}
	delete(c.lastSeen, name)
	delete(c.knownRev, name)
	delete(c.missed, name)
	for key := range c.pinned {
		if strings.HasSuffix(key, "→"+name) {
			delete(c.pinned, key)
		}
	}
}
