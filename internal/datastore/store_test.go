package datastore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"osdc/internal/dfs"
	"osdc/internal/sim"
	"osdc/internal/simdisk"
	"osdc/internal/simnet"
)

// testVolume builds a small 2-brick volume with the given per-brick
// capacity in bytes.
func testVolume(t *testing.T, e *sim.Engine, name string, capacity int64) *dfs.Volume {
	t.Helper()
	bricks := make([]*dfs.Brick, 2)
	for i := range bricks {
		d := simdisk.New(fmt.Sprintf("%s-d%d", name, i), capacity)
		bricks[i] = dfs.NewBrick(fmt.Sprintf("%s-b%d", name, i), d)
	}
	vol, err := dfs.NewVolume(e, 2, dfs.Version33, bricks)
	if err != nil {
		t.Fatal(err)
	}
	return vol
}

// usedBytes is the logical bytes on a store's test volume: one replica
// set of two bricks, so each brick's disk holds one full copy.
func usedBytes(s *Store) int64 { return s.vol.Bricks()[0].Disk.Used() }

func testStore(t *testing.T, e *sim.Engine, name string, capacity int64) *Store {
	t.Helper()
	return NewStore(name, simnet.SiteChicagoKenwood, testVolume(t, e, name, capacity))
}

func TestStorePutGetListDelete(t *testing.T) {
	e := sim.NewEngine(1)
	s := testStore(t, e, "s1", 1<<40)

	if _, err := s.Get(context.Background(), "nope"); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("Get(missing) = %v, want ErrNoReplica", err)
	}
	for _, r := range []Replica{
		{Dataset: "B Set", SizeBytes: 2 << 30, Version: 1},
		{Dataset: "A Set", SizeBytes: 1 << 30, Version: 1},
	} {
		if err := s.Put(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Get(context.Background(), "A Set")
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum != Fingerprint("A Set", 1) {
		t.Fatalf("Put did not default the checksum: %q", got.Checksum)
	}
	snap, err := s.ListSince(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if list := snap.Changed; len(list) != 2 || list[0].Dataset != "A Set" || list[1].Dataset != "B Set" {
		t.Fatalf("ListSince(0) = %+v, want name-sorted pair", list)
	}
	if s.TotalBytes() != 3<<30 {
		t.Fatalf("TotalBytes = %d", s.TotalBytes())
	}

	// Bytes are accounted on the volume (replica 2 doubles raw need).
	if used := usedBytes(s); used != 3<<30 {
		t.Fatalf("volume UsedBytes = %d, want %d", used, int64(3<<30))
	}
	if err := s.Delete(context.Background(), "B Set"); err != nil {
		t.Fatal(err)
	}
	if used := usedBytes(s); used != 1<<30 {
		t.Fatalf("volume UsedBytes after delete = %d, want %d", used, int64(1<<30))
	}
	if err := s.Delete(context.Background(), "B Set"); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("double delete = %v, want ErrNoReplica", err)
	}

	// Replacing a replica releases the old bytes first.
	if err := s.Put(context.Background(), Replica{Dataset: "A Set", SizeBytes: 4 << 30, Version: 2}); err != nil {
		t.Fatal(err)
	}
	if used := usedBytes(s); used != 4<<30 {
		t.Fatalf("volume UsedBytes after replace = %d, want %d", used, int64(4<<30))
	}
}

func TestStoreRejectsInvalidAndFull(t *testing.T) {
	e := sim.NewEngine(1)
	// Per-brick capacity 1 GB → the volume holds ~2 GB of replica-2 data.
	s := testStore(t, e, "tiny", 1<<30)

	for _, bad := range []Replica{
		{Dataset: "", SizeBytes: 1, Version: 1},
		{Dataset: "x", SizeBytes: 0, Version: 1},
		{Dataset: "x", SizeBytes: 1, Version: 0},
	} {
		if err := s.Put(context.Background(), bad); err == nil {
			t.Fatalf("Put(%+v) accepted an invalid replica", bad)
		}
	}
	if err := s.Put(context.Background(), Replica{Dataset: "big", SizeBytes: 8 << 30, Version: 1}); err == nil {
		t.Fatal("Put onto a full volume succeeded")
	}
	if s.Count() != 0 {
		t.Fatalf("failed puts left %d replicas", s.Count())
	}
}

// TestStoreFailedReplaceKeepsAccounting: a replace that exceeds the
// volume leaves the old replica and the disk books untouched — the old
// release-then-alloc path corrupted accounting and made the eventual
// Delete double-release (panicking the server).
func TestStoreFailedReplaceKeepsAccounting(t *testing.T) {
	e := sim.NewEngine(1)
	s := testStore(t, e, "repl", 4<<30) // per-brick 4 GB
	if err := s.Put(context.Background(), Replica{Dataset: "Set", SizeBytes: 2 << 30, Version: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(context.Background(), Replica{Dataset: "Set", SizeBytes: 16 << 30, Version: 2}); err == nil {
		t.Fatal("oversized replace succeeded")
	}
	got, err := s.Get(context.Background(), "Set")
	if err != nil || got.Version != 1 || got.SizeBytes != 2<<30 {
		t.Fatalf("failed replace clobbered the replica: %+v, %v", got, err)
	}
	if used := usedBytes(s); used != 2<<30 {
		t.Fatalf("volume UsedBytes after failed replace = %d, want %d", used, int64(2<<30))
	}
	// The delete releases exactly once; accounting returns to zero.
	if err := s.Delete(context.Background(), "Set"); err != nil {
		t.Fatal(err)
	}
	if used := usedBytes(s); used != 0 {
		t.Fatalf("volume UsedBytes after delete = %d, want 0", used)
	}
}

func TestStoreAdoptSkipsVolumeAccounting(t *testing.T) {
	e := sim.NewEngine(1)
	s := testStore(t, e, "root", 1<<40)
	if err := s.Adopt(Replica{Dataset: "Master", SizeBytes: 10 << 30, Version: 1}); err != nil {
		t.Fatal(err)
	}
	if used := usedBytes(s); used != 0 {
		t.Fatalf("Adopt wrote %d bytes to the volume", used)
	}
	if got, err := s.Get(context.Background(), "Master"); err != nil || got.Checksum != Fingerprint("Master", 1) {
		t.Fatalf("adopted replica = %+v, %v", got, err)
	}
}

// TestStoreConcurrentAccess drives every store method from racing
// goroutines — the coordinator lists while the wire plane puts.
func TestStoreConcurrentAccess(t *testing.T) {
	e := sim.NewEngine(1)
	s := testStore(t, e, "conc", 1<<44)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("set-%d", w)
			for i := 0; i < 100; i++ {
				_ = s.Put(context.Background(), Replica{Dataset: name, SizeBytes: 1 << 20, Version: 1})
				_, _ = s.Get(context.Background(), name)
				_, _ = s.ListSince(context.Background(), 0)
				s.TotalBytes()
				_ = s.Delete(context.Background(), name)
			}
		}()
	}
	wg.Wait()
	if s.Count() != 0 {
		t.Fatalf("Count = %d after balanced put/delete", s.Count())
	}
}

func TestFingerprintDistinguishesVersions(t *testing.T) {
	a, b := Fingerprint("X", 1), Fingerprint("X", 2)
	if a == b || a == Fingerprint("Y", 1) || len(a) != 32 {
		t.Fatalf("fingerprints not distinct: %q %q", a, b)
	}
}

// TestListSinceDeltas walks the delta protocol through a put/delete
// history: a fresh client resets, incremental calls see exactly the churn,
// and a client ahead of the store resets again.
func TestListSinceDeltas(t *testing.T) {
	e := sim.NewEngine(4)
	s := testStore(t, e, "delta", 1<<40)

	// Empty store, fresh client: an empty Reset snapshot at revision 0.
	d, err := s.ListSince(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Reset || d.Rev != 0 || len(d.Changed) != 0 || len(d.Removed) != 0 {
		t.Fatalf("ListSince(0) on empty store = %+v", d)
	}

	for _, name := range []string{"B Set", "A Set", "C Set"} {
		if err := s.Put(context.Background(), Replica{Dataset: name, SizeBytes: 1 << 30, Version: 1}); err != nil {
			t.Fatal(err)
		}
	}
	d, err = s.ListSince(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Reset || d.Rev != 3 || len(d.Changed) != 3 {
		t.Fatalf("snapshot after 3 puts = %+v", d)
	}
	if d.Changed[0].Dataset != "A Set" || d.Changed[2].Dataset != "C Set" {
		t.Fatalf("snapshot not sorted by dataset: %+v", d.Changed)
	}

	// Churn: one replace, one delete. The delta from rev 3 holds exactly
	// those two, nothing else.
	if err := s.Put(context.Background(), Replica{Dataset: "B Set", SizeBytes: 2 << 30, Version: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(context.Background(), "C Set"); err != nil {
		t.Fatal(err)
	}
	d, err = s.ListSince(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Reset || d.Rev != 5 {
		t.Fatalf("delta after churn = %+v", d)
	}
	if len(d.Changed) != 1 || d.Changed[0].Dataset != "B Set" || d.Changed[0].Version != 2 {
		t.Fatalf("Changed = %+v, want the replaced B Set v2", d.Changed)
	}
	if len(d.Removed) != 1 || d.Removed[0] != "C Set" {
		t.Fatalf("Removed = %+v, want [C Set]", d.Removed)
	}

	// Caught up: an empty delta.
	d, err = s.ListSince(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Reset || d.Rev != 5 || len(d.Changed) != 0 || len(d.Removed) != 0 {
		t.Fatalf("caught-up delta = %+v", d)
	}

	// A re-put of a deleted dataset clears its grave: the delta reports it
	// changed, not removed.
	if err := s.Put(context.Background(), Replica{Dataset: "C Set", SizeBytes: 1 << 30, Version: 3}); err != nil {
		t.Fatal(err)
	}
	d, err = s.ListSince(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Changed) != 1 || d.Changed[0].Dataset != "C Set" || len(d.Removed) != 0 {
		t.Fatalf("delta after re-put = %+v", d)
	}

	// A client from the future (store restarted under it) resets.
	d, err = s.ListSince(context.Background(), 999)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Reset || d.Rev != s.Rev() || len(d.Changed) != 3 {
		t.Fatalf("ahead-of-store delta = %+v", d)
	}
}

// TestListSinceTracksAdopt: adopted replicas (master copies) appear in
// deltas like put ones — the coordinator observes them the same way.
func TestListSinceTracksAdopt(t *testing.T) {
	e := sim.NewEngine(5)
	s := testStore(t, e, "adopt", 1<<40)
	if err := s.Adopt(Replica{Dataset: "Master Set", SizeBytes: 4 << 30, Version: 1}); err != nil {
		t.Fatal(err)
	}
	d, err := s.ListSince(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rev != 1 || len(d.Changed) != 1 || d.Changed[0].Dataset != "Master Set" {
		t.Fatalf("delta after Adopt = %+v", d)
	}
}
