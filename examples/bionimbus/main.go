// Bionimbus example (paper §4.1): manage genomic data on the OSDC — open
// data on the shared cloud, controlled human data on a secure private
// cloud — and run the curated variant-calling pipeline image instead of
// maintaining your own.
package main

import (
	"fmt"
	"log"

	"osdc/internal/bionimbus"
	"osdc/internal/core"
	"osdc/internal/dfs"
	"osdc/internal/sim"
	"osdc/internal/simdisk"
	"osdc/internal/workload"
)

func main() {
	f, err := core.New(core.Options{Seed: 21, Scale: 8})
	if err != nil {
		log.Fatal(err)
	}

	// An open Bionimbus cloud over OSDC-Adler's storage, and a secure
	// private cloud for controlled human data.
	open := bionimbus.New("bionimbus", false, f.AdlerGFS, f.Adler)
	pdcVol := smallVolume(f.Engine)
	pdc := bionimbus.New("bionimbus-pdc", true, pdcVol, nil)

	// Curated pipeline images ship with the cloud (§4.1).
	for _, img := range open.Images() {
		fmt.Printf("curated image: %s (tools: %v)\n", img.Name, img.Tools)
	}

	// Open data: modENCODE tracks are world-fetchable.
	if err := open.Ingest("curator", bionimbus.GenomicDataset{
		Name: "modENCODE fly tracks", Project: "modENCODE", Class: bionimbus.AccessOpen,
	}, []byte(">track data...")); err != nil {
		log.Fatal(err)
	}
	if _, err := open.Fetch("any-researcher", "modENCODE fly tracks"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("open cloud: modENCODE tracks shared without download ceremony")

	// Controlled data: refused on the open cloud, accepted on the PDC for
	// enrolled users only.
	human := bionimbus.GenomicDataset{
		Name: "T2D exomes", Project: "T2D-Genes", Class: bionimbus.AccessControlled,
	}
	if err := open.Ingest("alice", human, []byte("ACGT")); err != nil {
		fmt.Println("open cloud correctly refused controlled data:", err)
	}
	pdc.Enroll("alice")
	if err := pdc.Ingest("alice", human, []byte("ACGT")); err != nil {
		log.Fatal(err)
	}
	if _, err := pdc.Fetch("mallory", "T2D exomes"); err != nil {
		fmt.Println("secure cloud correctly refused unenrolled access:", err)
	}

	// The analysis: align synthetic reads and call a planted variant.
	rng := sim.NewRNG(5)
	ref, _ := workload.GenomeReads(rng, 50000, 0, 100, 0)
	donor := append([]byte(nil), ref...)
	pos := 25000
	alt := byte('G')
	if donor[pos] == 'G' {
		alt = 'T'
	}
	donor[pos] = alt
	var reads [][]byte
	for start := pos - 90; start <= pos-10; start += 2 {
		read := make([]byte, 100)
		copy(read, donor[start:start+100])
		reads = append(reads, read)
	}
	variants := bionimbus.Pipeline(ref, reads)
	fmt.Printf("pipeline: %d reads aligned, %d variant(s) called\n", len(reads), len(variants))
	for _, v := range variants {
		fmt.Printf("  %d: %c → %c (depth %d, alt reads %d)\n", v.Pos, v.Ref, v.Alt, v.Depth, v.AltCount)
	}
}

func smallVolume(e *sim.Engine) *dfs.Volume {
	var bricks []*dfs.Brick
	for i := 0; i < 2; i++ {
		d := simdisk.New(fmt.Sprintf("pdc-d%d", i), 1<<40)
		bricks = append(bricks, dfs.NewBrick(fmt.Sprintf("pdc-b%d", i), "pdc-node", d))
	}
	v, err := dfs.NewVolume(e, "pdc", 2, dfs.Version33, bricks)
	if err != nil {
		log.Fatal(err)
	}
	return v
}
