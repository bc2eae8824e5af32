// Package dfs implements the GlusterFS-like distributed filesystem that
// backs the OSDC's storage (paper §7.1).
//
// Like GlusterFS, the design has no metadata server: file placement is
// computed from an elastic hash of the path (the DHT "distribute"
// translator), and durability comes from synchronous replication across
// replica sets (the "replicate"/AFR translator) with self-healing of stale
// or corrupt copies detected by checksum comparison.
//
// The paper reports that GlusterFS 3.1 had "a bug in mirroring that caused
// some data loss and forced us to stop using mirroring", fixed by 3.3.
// Version selects the behaviour: VersionBuggy31 silently corrupts one
// replica on a write race (fault injection used by the tests), Version33
// replicates correctly and heals.
package dfs

import (
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"strings"

	"osdc/internal/sim"
	"osdc/internal/simdisk"
)

// Version selects replication behaviour (see package doc).
type Version int

// Supported behaviour modes.
const (
	Version33      Version = iota // current, correct replication + self-heal
	VersionBuggy31                // the 3.1 mirroring bug: occasional silent replica corruption
)

// File is one stored object. Content may be nil for petabyte-scale
// accounting entries, in which case only Size and Sum are tracked.
type File struct {
	Path    string
	Size    int64
	Content []byte
	Sum     [sha256.Size]byte
}

// Brick is one storage unit: a directory on one server's disk.
type Brick struct {
	Name   string
	Disk   *simdisk.Disk
	files  map[string]*File
	online bool
	// corrupt marks paths whose local copy is silently bad (mirror bug).
	corrupt map[string]bool
}

// NewBrick creates an online brick on a disk.
func NewBrick(name string, disk *simdisk.Disk) *Brick {
	return &Brick{
		Name: name, Disk: disk,
		files: make(map[string]*File), corrupt: make(map[string]bool),
		online: true,
	}
}

// SetOnline flips brick availability (failures and recoveries).
func (b *Brick) SetOnline(v bool) { b.online = v }

func (b *Brick) store(f *File) error {
	// Account the size *delta*, never release-then-realloc: a failed
	// replace must leave both the stored file and the disk accounting
	// exactly as they were (release-first corrupted the books and made a
	// later remove double-release).
	var oldSize int64
	if old, ok := b.files[f.Path]; ok {
		oldSize = old.Size
	}
	if delta := f.Size - oldSize; delta > 0 {
		if err := b.Disk.Alloc(delta); err != nil {
			return err
		}
	} else {
		b.Disk.Release(oldSize - f.Size)
	}
	cp := *f
	b.files[f.Path] = &cp
	delete(b.corrupt, f.Path)
	return nil
}

func (b *Brick) remove(path string) {
	if old, ok := b.files[path]; ok {
		b.Disk.Release(old.Size)
		delete(b.files, path)
		delete(b.corrupt, path)
	}
}

// Volume is a DFS volume: an ordered list of replica sets of bricks.
// Placement distributes files across replica sets by elastic hash.
type Volume struct {
	Version Version
	sets    [][]*Brick
	rng     *sim.RNG
}

// NewVolume builds a volume from bricks. len(bricks) must be a non-zero
// multiple of replicaCount; consecutive bricks form replica sets, as in
// gluster volume create.
func NewVolume(e *sim.Engine, replicaCount int, version Version, bricks []*Brick) (*Volume, error) {
	if replicaCount < 1 {
		return nil, fmt.Errorf("dfs: replica count must be ≥1")
	}
	if len(bricks) == 0 || len(bricks)%replicaCount != 0 {
		return nil, fmt.Errorf("dfs: brick count %d not a multiple of replica %d", len(bricks), replicaCount)
	}
	v := &Volume{Version: version, rng: e.RNG().Fork()}
	for i := 0; i < len(bricks); i += replicaCount {
		v.sets = append(v.sets, bricks[i:i+replicaCount])
	}
	return v, nil
}

// Bricks returns all bricks in layout order.
func (v *Volume) Bricks() []*Brick {
	var out []*Brick
	for _, s := range v.sets {
		out = append(out, s...)
	}
	return out
}

// hashSet picks the replica set for a path (the DHT elastic hash).
func (v *Volume) hashSet(path string) []*Brick {
	h := fnv.New32a()
	h.Write([]byte(path))
	return v.sets[int(h.Sum32())%len(v.sets)]
}

// Write stores content at path, synchronously replicated to every online
// brick of its replica set. Under VersionBuggy31, a write may silently
// corrupt one replica (the paper's 3.1 mirroring bug).
func (v *Volume) Write(path string, content []byte) error {
	return v.writeFile(&File{
		Path: path, Size: int64(len(content)),
		Content: append([]byte(nil), content...),
		Sum:     sha256.Sum256(content),
	})
}

// WriteMeta stores a size-only entry (no content bytes), used for
// petabyte-scale datasets where only accounting matters.
func (v *Volume) WriteMeta(path string, size int64) error {
	return v.writeFile(&File{Path: path, Size: size, Sum: sha256.Sum256([]byte(path))})
}

func (v *Volume) writeFile(f *File) error {
	if strings.TrimSpace(f.Path) == "" {
		return fmt.Errorf("dfs: empty path")
	}
	set := v.hashSet(f.Path)
	// Pre-check every online replica's capacity so a mid-set failure
	// cannot leave some bricks holding the new size and others the old:
	// either the whole replica set takes the write or none does.
	for _, b := range set {
		if !b.online {
			continue
		}
		var oldSize int64
		if old, ok := b.files[f.Path]; ok {
			oldSize = old.Size
		}
		if delta := f.Size - oldSize; delta > b.Disk.Free() {
			return fmt.Errorf("dfs: write %s to %s: %w", f.Path, b.Name,
				simdisk.ErrFull{Disk: b.Disk.Name, Requested: delta, Free: b.Disk.Free()})
		}
	}
	wrote := 0
	for _, b := range set {
		if !b.online {
			continue // AFR: absent replica marked stale, healed later
		}
		if err := b.store(f); err != nil {
			return fmt.Errorf("dfs: write %s to %s: %w", f.Path, b.Name, err)
		}
		wrote++
	}
	if wrote == 0 {
		return fmt.Errorf("dfs: no online replica for %s", f.Path)
	}
	// The 3.1 mirroring bug: with both replicas online, a race occasionally
	// leaves one replica silently corrupt.
	if v.Version == VersionBuggy31 && wrote > 1 && v.rng.Bernoulli(0.02) {
		victim := set[v.rng.Intn(len(set))]
		if victim.online {
			victim.corrupt[f.Path] = true
		}
	}
	return nil
}

// Read returns the file at path from the first online, uncorrupted replica.
// Under Version33, reading detects checksum mismatches and triggers
// self-heal; under VersionBuggy31 a corrupt replica may be returned (the
// data-loss mode the paper hit), reported via ErrCorrupt.
func (v *Volume) Read(path string) (*File, error) {
	set := v.hashSet(path)
	var stale []*Brick
	var good *File
	for _, b := range set {
		if !b.online {
			continue
		}
		f, ok := b.files[path]
		if !ok {
			stale = append(stale, b)
			continue
		}
		if b.corrupt[path] {
			if v.Version == Version33 {
				// Checksum verification catches it; heal from a clean copy.
				stale = append(stale, b)
				continue
			}
			// 3.1: corruption undetected; first replica wins.
			if good == nil {
				return nil, ErrCorrupt{Path: path, Brick: b.Name}
			}
			continue
		}
		if good == nil {
			good = f
		}
	}
	if good == nil {
		return nil, ErrNotFound{Path: path}
	}
	// Self-heal stale/corrupt replicas from the good copy (3.3 behaviour).
	if v.Version == Version33 {
		for _, b := range stale {
			_ = b.store(good) // a full disk stays stale until a later read
		}
	}
	return good, nil
}

// Delete removes the file from every replica.
func (v *Volume) Delete(path string) error {
	set := v.hashSet(path)
	found := false
	for _, b := range set {
		if _, ok := b.files[path]; ok {
			found = true
		}
		b.remove(path)
	}
	if !found {
		return ErrNotFound{Path: path}
	}
	return nil
}

// ErrNotFound reports a missing file.
type ErrNotFound struct{ Path string }

func (e ErrNotFound) Error() string { return "dfs: not found: " + e.Path }

// ErrCorrupt reports a silently-corrupt replica surfaced to a reader (the
// 3.1 data-loss mode).
type ErrCorrupt struct{ Path, Brick string }

func (e ErrCorrupt) Error() string {
	return fmt.Sprintf("dfs: corrupt replica of %s on %s (gluster 3.1 mirroring bug)", e.Path, e.Brick)
}
