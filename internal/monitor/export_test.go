package monitor

// StateOf returns the last observed state of host/check.
func (m *Master) StateOf(host, check string) State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.last[host+"/"+check]
}
