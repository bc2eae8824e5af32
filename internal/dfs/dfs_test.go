package dfs

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"osdc/internal/sim"
	"osdc/internal/simdisk"
)

func newVolume(t *testing.T, bricks, replica int, ver Version) (*sim.Engine, *Volume) {
	t.Helper()
	e := sim.NewEngine(99)
	bs := make([]*Brick, bricks)
	for i := range bs {
		d := simdisk.New(fmt.Sprintf("disk%d", i), 1<<50)
		bs[i] = NewBrick(fmt.Sprintf("brick%d", i), d)
	}
	v, err := NewVolume(e, replica, ver, bs)
	if err != nil {
		t.Fatal(err)
	}
	return e, v
}

func TestWriteReadRoundTrip(t *testing.T) {
	_, v := newVolume(t, 4, 2, Version33)
	data := []byte("EO-1 Hyperion scene, Namibia")
	if err := v.Write("/matsu/scene1", data); err != nil {
		t.Fatal(err)
	}
	f, err := v.Read("/matsu/scene1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Content, data) {
		t.Fatal("content differs")
	}
}

func TestReadMissing(t *testing.T) {
	_, v := newVolume(t, 2, 1, Version33)
	if _, err := v.Read("/nope"); err == nil {
		t.Fatal("expected ErrNotFound")
	} else if _, ok := err.(ErrNotFound); !ok {
		t.Fatalf("got %T, want ErrNotFound", err)
	}
}

func TestReplicationSurvivesBrickFailure(t *testing.T) {
	_, v := newVolume(t, 4, 2, Version33)
	for i := 0; i < 20; i++ {
		if err := v.Write(fmt.Sprintf("/f%d", i), []byte(fmt.Sprintf("data%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Kill one brick in each set.
	v.Bricks()[0].SetOnline(false)
	v.Bricks()[2].SetOnline(false)
	for i := 0; i < 20; i++ {
		f, err := v.Read(fmt.Sprintf("/f%d", i))
		if err != nil {
			t.Fatalf("read f%d after failure: %v", i, err)
		}
		if string(f.Content) != fmt.Sprintf("data%d", i) {
			t.Fatalf("f%d content wrong after failover", i)
		}
	}
}

func TestNoReplicaSetOfflineFails(t *testing.T) {
	_, v := newVolume(t, 2, 2, Version33)
	for _, b := range v.Bricks() {
		b.SetOnline(false)
	}
	if err := v.Write("/x", []byte("y")); err == nil {
		t.Fatal("write must fail with all replicas offline")
	}
}

func TestSelfHealAfterRecovery(t *testing.T) {
	_, v := newVolume(t, 2, 2, Version33)
	b0, b1 := v.Bricks()[0], v.Bricks()[1]
	b1.SetOnline(false)
	if err := v.Write("/healme", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if b1.FileCount() != 0 {
		t.Fatal("offline brick received write")
	}
	b1.SetOnline(true)
	// Read triggers self-heal of the stale replica.
	if _, err := v.Read("/healme"); err != nil {
		t.Fatal(err)
	}
	if b1.FileCount() != 1 {
		t.Fatal("stale replica not healed on read")
	}
	_ = b0
}

func TestMirroringBug31CausesCorruptReads(t *testing.T) {
	// Under 3.1, heavy write traffic eventually serves a corrupt replica —
	// the data-loss event the paper reports.
	_, v := newVolume(t, 2, 2, VersionBuggy31)
	sawCorrupt := false
	for i := 0; i < 2000 && !sawCorrupt; i++ {
		path := fmt.Sprintf("/modencode/%d", i)
		if err := v.Write(path, []byte("track data")); err != nil {
			t.Fatal(err)
		}
		if _, err := v.Read(path); err != nil {
			if _, ok := err.(ErrCorrupt); ok {
				sawCorrupt = true
			}
		}
	}
	if !sawCorrupt {
		t.Fatal("3.1 mirroring bug never surfaced in 2000 writes")
	}
}

func TestVersion33HealsCorruption(t *testing.T) {
	// Same workload under 3.3: checksum verification must route around and
	// repair corrupt replicas — zero corrupt reads.
	_, v := newVolume(t, 2, 2, Version33)
	// Manually inject corruption (as the 3.1 bug would).
	if err := v.Write("/safe", []byte("important")); err != nil {
		t.Fatal(err)
	}
	v.Bricks()[0].corrupt["/safe"] = true
	f, err := v.Read("/safe")
	if err != nil {
		t.Fatalf("3.3 read failed on corrupt replica: %v", err)
	}
	if string(f.Content) != "important" {
		t.Fatal("3.3 returned corrupt content")
	}
	if v.Bricks()[0].corrupt["/safe"] {
		t.Fatal("corrupt replica not healed")
	}
}

func TestDistributeSpreadsAcrossSets(t *testing.T) {
	_, v := newVolume(t, 8, 2, Version33)
	for i := 0; i < 400; i++ {
		if err := v.Write(fmt.Sprintf("/d/%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Every replica set should hold a reasonable share (elastic hash).
	for i, b := range v.Bricks() {
		if b.FileCount() < 40 {
			t.Fatalf("brick %d holds %d of 400 files; distribution skewed", i, b.FileCount())
		}
	}
}

func TestPlacementDeterministic(t *testing.T) {
	if err := quick.Check(func(path string) bool {
		if path == "" {
			return true
		}
		_, v1 := newVolume(t, 6, 2, Version33)
		_, v2 := newVolume(t, 6, 2, Version33)
		s1 := v1.hashSet(path)[0].Name
		s2 := v2.hashSet(path)[0].Name
		return s1 == s2
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUsedVsRawBytes(t *testing.T) {
	_, v := newVolume(t, 4, 2, Version33)
	if err := v.Write("/a", make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if v.UsedBytes() != 1000 {
		t.Fatalf("used = %d, want 1000", v.UsedBytes())
	}
	if v.RawBytes() != 2000 {
		t.Fatalf("raw = %d, want 2000 (2 replicas)", v.RawBytes())
	}
}

func TestWriteMetaAccountsWithoutContent(t *testing.T) {
	_, v := newVolume(t, 2, 1, Version33)
	if err := v.WriteMeta("/sdss/dr7.tar", 60<<40); err != nil { // 60 TB
		t.Fatal(err)
	}
	size, err := v.Stat("/sdss/dr7.tar")
	if err != nil {
		t.Fatal(err)
	}
	if size != 60<<40 {
		t.Fatalf("size = %d, want 60 TB", size)
	}
}

func TestDeleteFreesSpace(t *testing.T) {
	_, v := newVolume(t, 2, 2, Version33)
	if err := v.Write("/tmp/x", make([]byte, 500)); err != nil {
		t.Fatal(err)
	}
	if err := v.Delete("/tmp/x"); err != nil {
		t.Fatal(err)
	}
	if v.UsedBytes() != 0 {
		t.Fatalf("used = %d after delete", v.UsedBytes())
	}
	if err := v.Delete("/tmp/x"); err == nil {
		t.Fatal("double delete must error")
	}
}

func TestListPrefix(t *testing.T) {
	_, v := newVolume(t, 4, 1, Version33)
	for _, p := range []string{"/pub/1000genomes/a", "/pub/1000genomes/b", "/priv/x"} {
		if err := v.Write(p, []byte("d")); err != nil {
			t.Fatal(err)
		}
	}
	got := v.List("/pub/")
	if len(got) != 2 || got[0] != "/pub/1000genomes/a" {
		t.Fatalf("List = %v", got)
	}
}

func TestOverwriteReplacesNotDuplicates(t *testing.T) {
	_, v := newVolume(t, 2, 1, Version33)
	if err := v.Write("/f", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := v.Write("/f", make([]byte, 300)); err != nil {
		t.Fatal(err)
	}
	if v.UsedBytes() != 300 {
		t.Fatalf("used = %d after overwrite, want 300", v.UsedBytes())
	}
}

func TestBadVolumeConfigs(t *testing.T) {
	e := sim.NewEngine(1)
	d := simdisk.New("d", 1<<30)
	b := NewBrick("b", d)
	if _, err := NewVolume(e, 2, Version33, []*Brick{b}); err == nil {
		t.Fatal("1 brick with replica 2 must fail")
	}
	if _, err := NewVolume(e, 0, Version33, []*Brick{b}); err == nil {
		t.Fatal("replica 0 must fail")
	}
	if _, err := NewVolume(e, 1, Version33, nil); err == nil {
		t.Fatal("no bricks must fail")
	}
}
