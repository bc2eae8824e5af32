package gateway

import "fmt"

// Test-only surface: groups, deletes, listings and the raw-mount refusal
// the permission tests drive. The federation's export serves reads and
// writes only.

// AddGroup registers a group with members. Re-adding replaces membership.
func (e *Export) AddGroup(group string, members ...string) {
	m := make(map[string]bool, len(members))
	for _, u := range members {
		m[u] = true
	}
	e.groups[group] = m
}

// Delete removes a file on behalf of user (requires write).
func (e *Export) Delete(user, path string) error {
	if err := e.check(user, path, PermWrite); err != nil {
		return err
	}
	return e.volume.Delete(path)
}

// List enumerates paths under prefix that user may read.
func (e *Export) List(user, prefix string) []string {
	var out []string
	for _, p := range e.volume.List(prefix) {
		if e.check(user, p, PermRead) == nil {
			out = append(out, p)
		}
	}
	return out
}

// MountRaw models a direct GlusterFS mount attempt from a user VM: always
// rejected, because the current GlusterFS "would allow them root access on
// the whole share" (§7.1).
func (e *Export) MountRaw(user string) error {
	e.Denials++
	return fmt.Errorf("gateway: raw glusterfs mount refused for %s: clients have VM root; use the gateway export", user)
}
