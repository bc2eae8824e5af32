package sharing

import "fmt"

// Test-only surface: group management, collection nesting and the drop
// daemon's controls. The federation registers users, collections and
// grants; nothing in it creates groups or nests collections yet.

// CreateGroup lets a user create a group they own and manage ("users have
// the ability to create and modify groups").
func (s *Store) CreateGroup(owner, group string, members ...string) error {
	if !s.users[owner] {
		return fmt.Errorf("sharing: unknown user %q", owner)
	}
	if _, ok := s.groups[group]; ok {
		return fmt.Errorf("sharing: group %q exists", group)
	}
	m := map[string]bool{owner: true}
	for _, u := range members {
		m[u] = true
	}
	s.groups[group] = m
	return nil
}

// ModifyGroup adds or removes a member. Only current members may modify.
func (s *Store) ModifyGroup(actor, group, member string, add bool) error {
	m, ok := s.groups[group]
	if !ok {
		return fmt.Errorf("sharing: unknown group %q", group)
	}
	if !m[actor] {
		return fmt.Errorf("sharing: %s is not a member of %s", actor, group)
	}
	if add {
		m[member] = true
	} else {
		delete(m, member)
	}
	return nil
}

// Nest makes child a sub-collection of parent (owner of parent only).
// Cycles are rejected.
func (s *Store) Nest(actor, parentID, childID string) error {
	p, ok := s.colls[parentID]
	if !ok {
		return fmt.Errorf("sharing: unknown collection %q", parentID)
	}
	if _, ok := s.colls[childID]; !ok {
		return fmt.Errorf("sharing: unknown collection %q", childID)
	}
	if p.Owner != actor {
		return fmt.Errorf("sharing: %s does not own %s", actor, parentID)
	}
	if parentID == childID || s.reachable(childID, parentID) {
		return fmt.Errorf("sharing: nesting %s under %s would create a cycle", childID, parentID)
	}
	p.Children = append(p.Children, childID)
	return nil
}

func (s *Store) reachable(from, to string) bool {
	if from == to {
		return true
	}
	c, ok := s.colls[from]
	if !ok {
		return false
	}
	for _, ch := range c.Children {
		if s.reachable(ch, to) {
			return true
		}
	}
	return false
}

// Pending returns files dropped but not yet propagated.
func (d *DropDir) Pending() int { return len(d.pending) }

// Stop halts the daemon.
func (d *DropDir) Stop() { d.ticker.Stop() }
