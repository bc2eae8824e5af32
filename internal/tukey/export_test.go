package tukey

// Test-only hooks: nothing outside the tests reads these.

// Enroll registers an account.
func (o *OpenIDIdP) Enroll(user, secret string) { o.secrets[user] = secret }

// Err reports the most recent persistence failure, nil when the last write
// (if any) landed.
func (s *FileSessionStore) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saveErr
}

// Keys reports how many distinct keys hold buckets.
func (rl *RateLimiter) Keys() int {
	n := 0
	for i := range rl.shards {
		sh := &rl.shards[i]
		sh.mu.Lock()
		n += len(sh.buckets)
		sh.mu.Unlock()
	}
	return n
}

// identityFor resolves a session token the way the console's admit layer
// does, reaping it if it has expired and sliding its expiry forward if it
// is active.
func (m *Middleware) identityFor(token string) (Identity, bool) {
	store, ttl := m.sessions()
	s, found := store.Get(token)
	return settle(store, ttl, token, s, found, m.wallNow())
}
