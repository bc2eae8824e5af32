package bionimbus

import (
	"bytes"
	"fmt"
	"testing"

	"osdc/internal/dfs"
	"osdc/internal/iaas"
	"osdc/internal/sim"
	"osdc/internal/simdisk"
	"osdc/internal/workload"
)

func newClouds(t *testing.T) (*Cloud, *Cloud) {
	t.Helper()
	e := sim.NewEngine(33)
	mk := func(name string) *dfs.Volume {
		var bricks []*dfs.Brick
		for i := 0; i < 2; i++ {
			d := simdisk.New(fmt.Sprintf("%s-d%d", name, i), 1<<40)
			bricks = append(bricks, dfs.NewBrick(fmt.Sprintf("%s-b%d", name, i), "n", d))
		}
		v, err := dfs.NewVolume(e, name, 2, dfs.Version33, bricks)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	compute := iaas.NewCloud(e, "adler", "openstack", "chicago")
	compute.AddRack("r", 2)
	open := New("bionimbus-open", false, mk("open"), compute)
	secure := New("bionimbus-pdc", true, mk("pdc"), nil)
	return open, secure
}

func TestControlledDataRefusedOnOpenCloud(t *testing.T) {
	open, _ := newClouds(t)
	err := open.Ingest("alice", GenomicDataset{
		Name: "T2D human exomes", Project: "T2D-Genes", Class: AccessControlled,
	}, []byte("ACGT"))
	if err == nil {
		t.Fatal("controlled data accepted on a non-secure cloud")
	}
}

func TestSecureCloudRequiresEnrollment(t *testing.T) {
	_, secure := newClouds(t)
	d := GenomicDataset{Name: "human-wgs", Project: "T2D-Genes", Class: AccessControlled}
	if err := secure.Ingest("alice", d, []byte("ACGT")); err == nil {
		t.Fatal("unenrolled user ingested controlled data")
	}
	secure.Enroll("alice")
	if err := secure.Ingest("alice", d, []byte("ACGTACGT")); err != nil {
		t.Fatal(err)
	}
	if _, err := secure.Fetch("mallory", "human-wgs"); err == nil {
		t.Fatal("unenrolled user fetched controlled data")
	}
	got, err := secure.Fetch("alice", "human-wgs")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("ACGTACGT")) {
		t.Fatal("content mismatch")
	}
}

func TestOpenCloudSharing(t *testing.T) {
	open, _ := newClouds(t)
	d := GenomicDataset{Name: "modENCODE tracks", Project: "modENCODE", Class: AccessOpen}
	if err := open.Ingest("curator", d, []byte("track data")); err != nil {
		t.Fatal(err)
	}
	if len(open.datasets) != 1 || open.datasets["modENCODE tracks"] == nil {
		t.Fatalf("datasets = %v", open.datasets)
	}
	if _, err := open.Fetch("anyone", "modENCODE tracks"); err != nil {
		t.Fatalf("open data not fetchable: %v", err)
	}
}

func TestCuratedImagesRegistered(t *testing.T) {
	open, _ := newClouds(t)
	imgs := open.Images()
	if len(imgs) != 2 {
		t.Fatalf("images = %d, want 2 pipelines", len(imgs))
	}
	for _, img := range imgs {
		if !img.Public {
			t.Fatal("open-cloud pipeline image not public")
		}
		if !img.Portable {
			t.Fatal("image not AWS-portable (§9 interop)")
		}
		if len(img.Tools) == 0 {
			t.Fatal("image carries no tools")
		}
	}
}

// --- pipeline ---

func TestAlignerPlacesCleanReadsExactly(t *testing.T) {
	rng := sim.NewRNG(44)
	ref, reads := workload.GenomeReads(rng, 20000, 100, 100, 0) // no mutations
	a := NewAligner(ref)
	als := a.Align(reads, 4)
	if len(als) != 100 {
		t.Fatalf("aligned %d of 100 clean reads", len(als))
	}
	for _, al := range als {
		if al.Mismatches != 0 {
			t.Fatalf("clean read has %d mismatches", al.Mismatches)
		}
		if !bytes.Equal(reads[al.ReadIndex], ref[al.Pos:al.Pos+100]) {
			t.Fatal("alignment position wrong")
		}
	}
}

func TestAlignerToleratesMutations(t *testing.T) {
	rng := sim.NewRNG(45)
	ref, reads := workload.GenomeReads(rng, 20000, 200, 100, 0.01)
	a := NewAligner(ref)
	als := a.Align(reads, 8)
	// ~1% mutation on 100bp: ~1 mismatch/read; nearly all should align.
	if len(als) < 180 {
		t.Fatalf("aligned %d of 200 mutated reads, want ≥180", len(als))
	}
}

func TestVariantCallingFindsPlantedSNV(t *testing.T) {
	rng := sim.NewRNG(46)
	ref, _ := workload.GenomeReads(rng, 5000, 0, 100, 0)
	// Build a donor genome with one SNV and sample deep reads around it.
	donor := append([]byte(nil), ref...)
	pos := 2500
	old := donor[pos]
	var alt byte = 'A'
	if old == 'A' {
		alt = 'C'
	}
	donor[pos] = alt
	var reads [][]byte
	for start := pos - 90; start <= pos-10; start += 4 {
		read := make([]byte, 100)
		copy(read, donor[start:start+100])
		reads = append(reads, read)
	}
	vars := Pipeline(ref, reads)
	found := false
	for _, v := range vars {
		if v.Pos == pos && v.Alt == alt && v.Ref == old {
			found = true
			if v.Depth < 4 || v.AltCount < 4 {
				t.Fatalf("weak call: %+v", v)
			}
		}
	}
	if !found {
		t.Fatalf("planted SNV at %d not called; calls: %+v", pos, vars)
	}
	// No spurious calls elsewhere (clean reads).
	if len(vars) != 1 {
		t.Fatalf("extra variant calls: %+v", vars)
	}
}

func TestPipelineNoVariantsOnCleanReads(t *testing.T) {
	rng := sim.NewRNG(47)
	ref, reads := workload.GenomeReads(rng, 10000, 300, 100, 0)
	if vars := Pipeline(ref, reads); len(vars) != 0 {
		t.Fatalf("clean reads produced %d variant calls", len(vars))
	}
}
