package dfs

// Test-only surface: the accounting and repair sweeps the tests assert
// through. Product code reads capacity from the bricks' disks.

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

// HealAll sweeps every file and repairs stale or corrupt replicas from a
// clean copy (the gluster self-heal daemon's full crawl). Returns the
// number of replica repairs.
func (v *Volume) HealAll() int64 {
	if v.Version != Version33 {
		return 0
	}
	var healed int64
	for _, path := range v.List("") {
		before := v.HealedFiles
		if _, err := v.Read(path); err == nil {
			healed += v.HealedFiles - before
		}
	}
	return healed
}
