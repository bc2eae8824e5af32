// Package sharing implements the OSDC's distributed file sharing prototype
// (paper §6.2): access control based on users and file-collection
// objects, and a designated drop directory monitored by a daemon that
// propagates file information into a database. The paper's WebDAV front
// end, user-managed groups and collections of collections are not
// modelled.
package sharing

import (
	"fmt"
	"slices"
	"strings"

	"osdc/internal/sim"
)

// Perm is the access level granted on a collection.
type Perm int

// Permission levels.
const (
	PermNone Perm = iota
	PermRead
	PermWrite
)

// FileInfo is the database record the monitoring daemon maintains for each
// shared file.
type FileInfo struct {
	Path    string
	Owner   string
	Size    int64
	Content []byte
	Added   sim.Time
}

// Collection is a file-collection object: "a file, a collection of files,
// or a collection of collections" (§6.2); here, a collection of files.
type Collection struct {
	ID    string
	Name  string
	Owner string
	Files []string // member file paths
}

// Store is the sharing database.
type Store struct {
	users  map[string]bool
	files  map[string]*FileInfo
	colls  map[string]*Collection
	grants map[string]map[string]Perm // collection -> principal -> perm
	nextID int
}

// NewStore creates an empty sharing database.
func NewStore() *Store {
	return &Store{
		users:  make(map[string]bool),
		files:  make(map[string]*FileInfo),
		colls:  make(map[string]*Collection),
		grants: make(map[string]map[string]Perm),
	}
}

// AddUser registers a user.
func (s *Store) AddUser(name string) {
	if strings.TrimSpace(name) == "" {
		panic("sharing: empty user name")
	}
	s.users[name] = true
}

// NewCollection creates a collection object owned by owner.
func (s *Store) NewCollection(owner, name string) (*Collection, error) {
	if !s.users[owner] {
		return nil, fmt.Errorf("sharing: unknown user %q", owner)
	}
	s.nextID++
	c := &Collection{ID: fmt.Sprintf("coll-%04d", s.nextID), Name: name, Owner: owner}
	s.colls[c.ID] = c
	return c, nil
}

// AddFileToCollection attaches a registered file to a collection (owner
// only).
func (s *Store) AddFileToCollection(actor, collID, path string) error {
	c, ok := s.colls[collID]
	if !ok {
		return fmt.Errorf("sharing: unknown collection %q", collID)
	}
	if c.Owner != actor {
		return fmt.Errorf("sharing: %s does not own %s", actor, collID)
	}
	if _, ok := s.files[path]; !ok {
		return fmt.Errorf("sharing: file %q not registered (drop it in the shared directory first)", path)
	}
	c.Files = append(c.Files, path)
	return nil
}

// Grant gives a user permission on a collection (owner only). Principals
// are "user:name".
func (s *Store) Grant(actor, collID, principal string, p Perm) error {
	c, ok := s.colls[collID]
	if !ok {
		return fmt.Errorf("sharing: unknown collection %q", collID)
	}
	if c.Owner != actor {
		return fmt.Errorf("sharing: %s does not own %s", actor, collID)
	}
	if !strings.HasPrefix(principal, "user:") {
		return fmt.Errorf("sharing: principal must be user:, got %q", principal)
	}
	g, ok := s.grants[collID]
	if !ok {
		g = make(map[string]Perm)
		s.grants[collID] = g
	}
	g[principal] = p
	return nil
}

// permOn resolves user's permission on a collection.
func (s *Store) permOn(user string, c *Collection) Perm {
	if c.Owner == user {
		return PermWrite
	}
	return s.grants[c.ID]["user:"+user]
}

// CanRead reports whether user may read a file through any collection
// containing it — or owns it.
func (s *Store) CanRead(user, path string) bool {
	f, ok := s.files[path]
	if !ok {
		return false
	}
	if f.Owner == user {
		return true
	}
	for _, c := range s.colls {
		if s.permOn(user, c) >= PermRead && slices.Contains(c.Files, path) {
			return true
		}
	}
	return false
}

// registerFile inserts or updates the database record (daemon path).
func (s *Store) registerFile(f *FileInfo) { s.files[f.Path] = f }

// DropDir models the designated shared directory: "users share files by
// adding them to a designated directory. This directory is monitored by a
// daemon process that propagates file information to a database" (§6.2).
type DropDir struct {
	engine  *sim.Engine
	store   *Store
	pending []*FileInfo

	Propagated int64
}

// NewDropDir starts the monitoring daemon with the given scan interval.
func NewDropDir(e *sim.Engine, store *Store, scanEvery sim.Duration) *DropDir {
	d := &DropDir{engine: e, store: store}
	e.Every(scanEvery, d.scan)
	return d
}

// Drop places a file into the shared directory; it becomes visible to the
// database at the daemon's next scan.
func (d *DropDir) Drop(owner, path string, content []byte) {
	d.pending = append(d.pending, &FileInfo{
		Path: path, Owner: owner, Size: int64(len(content)),
		Content: append([]byte(nil), content...),
	})
}

func (d *DropDir) scan() {
	for _, f := range d.pending {
		f.Added = d.engine.Now()
		d.store.registerFile(f)
		d.Propagated++
	}
	d.pending = nil
}
