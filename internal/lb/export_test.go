package lb

// Backends returns the current backend URLs (healthy or not).
func (p *Pool) Backends() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.backends))
	for i, b := range p.backends {
		out[i] = b.url
	}
	return out
}
