package dfs

import (
	"sort"
	"strings"
)

// Test-only surface: the accounting and listing the tests assert through.
// Product code reads capacity from the bricks' disks.

// FileCount returns the number of files stored on this brick.
func (b *Brick) FileCount() int { return len(b.files) }

// Stat returns size information without reading content.
func (v *Volume) Stat(path string) (int64, error) {
	for _, b := range v.hashSet(path) {
		if f, ok := b.files[path]; ok {
			return f.Size, nil
		}
	}
	return 0, ErrNotFound{Path: path}
}

// UsedBytes sums the logical bytes stored (each file counted once).
func (v *Volume) UsedBytes() int64 {
	var total int64
	counted := make(map[string]bool)
	for _, s := range v.sets {
		for _, b := range s {
			for p, f := range b.files {
				if !counted[p] {
					counted[p] = true
					total += f.Size
				}
			}
		}
	}
	return total
}

// RawBytes sums physical bytes across replicas.
func (v *Volume) RawBytes() int64 {
	var total int64
	for _, s := range v.sets {
		for _, b := range s {
			for _, f := range b.files {
				total += f.Size
			}
		}
	}
	return total
}

// List returns all paths with the given prefix, sorted.
func (v *Volume) List(prefix string) []string {
	seen := make(map[string]bool)
	for _, s := range v.sets {
		for _, b := range s {
			for p := range b.files {
				if strings.HasPrefix(p, prefix) {
					seen[p] = true
				}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
