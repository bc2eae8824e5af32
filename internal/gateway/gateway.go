// Package gateway implements the Samba-like permission-enforcing re-export
// of GlusterFS shares (paper §7.1).
//
// OSDC users have root on their virtual machines, so they cannot be allowed
// to mount the GlusterFS shares directly — GlusterFS would grant them root
// on the whole share. Instead the shares are exported through a gateway
// that authenticates each user and enforces per-path permissions,
// independent of whatever uid the client claims.
package gateway

import (
	"fmt"
	"sort"
	"strings"

	"osdc/internal/dfs"
)

// Mode is a simplified POSIX-style permission triple on a path prefix.
type Mode uint8

// Permission bits.
const (
	PermRead Mode = 1 << iota
	PermWrite
)

// ACE is one access-control entry: who may do what under a path prefix.
type ACE struct {
	Prefix string // path prefix this entry governs
	User   string // exact user, or "" for a world entry
	Mode   Mode
}

// Export is a gateway share: a DFS volume plus its access-control list.
type Export struct {
	volume *dfs.Volume
	acl    []ACE
}

// New creates an export over a volume.
func New(vol *dfs.Volume) *Export {
	return &Export{volume: vol}
}

// Allow appends an ACE. Longest-prefix entries win over shorter ones; among
// equal prefixes, later entries win.
func (e *Export) Allow(ace ACE) {
	if !strings.HasPrefix(ace.Prefix, "/") {
		panic("gateway: ACE prefix must start with /")
	}
	e.acl = append(e.acl, ace)
	// Keep stable longest-prefix-first evaluation order.
	sort.SliceStable(e.acl, func(i, j int) bool {
		return len(e.acl[i].Prefix) > len(e.acl[j].Prefix)
	})
}

// ErrDenied reports a permission failure.
type ErrDenied struct {
	User string
	Path string
	Op   string
}

func (e ErrDenied) Error() string {
	return fmt.Sprintf("gateway: %s denied %s on %s", e.User, e.Op, e.Path)
}

// check resolves the effective mode for user on path: among the ACEs that
// match the user (by name or as a world entry), the ones at the longest
// matching prefix decide, and their modes combine. A matching
// longest-prefix entry with Mode 0 is therefore an explicit deny that
// shorter prefixes cannot override.
func (e *Export) check(user, path string, want Mode) error {
	bestLen := -1
	var mode Mode
	for _, ace := range e.acl {
		if !strings.HasPrefix(path, ace.Prefix) || (ace.User != "" && ace.User != user) {
			continue
		}
		switch {
		case len(ace.Prefix) > bestLen:
			bestLen = len(ace.Prefix)
			mode = ace.Mode
		case len(ace.Prefix) == bestLen:
			mode |= ace.Mode
		}
	}
	if bestLen >= 0 && mode&want == want {
		return nil
	}
	op := "read"
	if want&PermWrite != 0 {
		op = "write"
	}
	return ErrDenied{User: user, Path: path, Op: op}
}

// Read fetches a file on behalf of user.
func (e *Export) Read(user, path string) (*dfs.File, error) {
	if err := e.check(user, path, PermRead); err != nil {
		return nil, err
	}
	return e.volume.Read(path)
}

// Write stores a file on behalf of user.
func (e *Export) Write(user, path string, content []byte) error {
	if err := e.check(user, path, PermWrite); err != nil {
		return err
	}
	return e.volume.Write(path, content)
}
