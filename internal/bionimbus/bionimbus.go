// Package bionimbus implements Bionimbus (paper §4.1,
// www.bionimbus.org): "a cloud-based infrastructure for managing,
// analyzing, archiving, and sharing large genomic datasets", used by
// modENCODE and the T2D-Genes consortia, with "secure, private Bionimbus
// clouds that are designed to hold controlled data, such as human genomic
// data".
//
// The genomics here is deliberately simple but real: a k-mer index aligner
// places synthetic short reads on a reference, a pileup consensus caller
// emits variants, and the pipeline is packaged the way the OSDC packaged
// community tools — as a curated VM image users launch instead of
// maintaining their own pipelines.
package bionimbus

import (
	"fmt"
	"sort"
	"strings"

	"osdc/internal/dfs"
	"osdc/internal/gateway"
	"osdc/internal/iaas"
)

// AccessClass tags datasets by sensitivity.
type AccessClass string

// Dataset access classes.
const (
	AccessOpen       AccessClass = "open"       // public release
	AccessControlled AccessClass = "controlled" // human genomic data: private cloud only
)

// GenomicDataset is one managed dataset.
type GenomicDataset struct {
	Name    string
	Project string // e.g. "modENCODE", "T2D-Genes"
	Class   AccessClass
}

// path is where d lives on a cloud's volume.
func (d GenomicDataset) path() string {
	return "/genomics/" + strings.ToLower(d.Project) + "/" + strings.ToLower(strings.ReplaceAll(d.Name, " ", "-"))
}

// Cloud is a Bionimbus deployment: storage plus compute plus the curated
// pipeline images. Private clouds (Secure=true) only admit enrolled users
// and refuse open-network export of controlled data.
type Cloud struct {
	Name     string
	Secure   bool
	volume   *dfs.Volume
	export   *gateway.Export
	enrolled map[string]bool
	datasets map[string]*GenomicDataset
	images   []*iaas.Image
}

// New creates a Bionimbus cloud over a DFS volume and an IaaS cloud.
func New(name string, secure bool, vol *dfs.Volume, compute *iaas.Cloud) *Cloud {
	c := &Cloud{
		Name: name, Secure: secure, volume: vol,
		export:   gateway.New(name+"-export", vol),
		enrolled: make(map[string]bool),
		datasets: make(map[string]*GenomicDataset),
	}
	// The curated pipeline images (§4.1: images "include the analysis tools
	// and pipelines used by the different research groups").
	if compute != nil {
		c.images = append(c.images,
			compute.RegisterImage(iaas.Image{
				Name: "bionimbus-align-" + name, Public: !secure, Portable: true,
				Tools: []string{"kmer-aligner", "samtools-like", "pileup-caller"},
			}),
			compute.RegisterImage(iaas.Image{
				Name: "bionimbus-rnaseq-" + name, Public: !secure, Portable: true,
				Tools: []string{"quantifier", "normalizer"},
			}),
		)
	}
	return c
}

// Enroll admits a user to a secure cloud (data-access committee approval).
func (c *Cloud) Enroll(user string) {
	c.enrolled[user] = true
	c.export.Allow(gateway.ACE{Prefix: "/", User: user, Mode: gateway.PermRead | gateway.PermWrite})
}

// Images lists the curated pipeline images.
func (c *Cloud) Images() []*iaas.Image { return c.images }

// Ingest stores a dataset. Controlled data is refused by non-secure clouds.
func (c *Cloud) Ingest(user string, d GenomicDataset, content []byte) error {
	if d.Class == AccessControlled && !c.Secure {
		return fmt.Errorf("bionimbus: %s is controlled-access; cloud %s is not a secure private cloud", d.Name, c.Name)
	}
	if c.Secure && !c.enrolled[user] {
		return fmt.Errorf("bionimbus: %s is not enrolled in secure cloud %s", user, c.Name)
	}
	if err := c.volume.Write(d.path(), content); err != nil {
		return err
	}
	cp := d
	c.datasets[d.Name] = &cp
	return nil
}

// Fetch reads a dataset on behalf of user, enforcing enrollment on secure
// clouds.
func (c *Cloud) Fetch(user, name string) ([]byte, error) {
	d, ok := c.datasets[name]
	if !ok {
		return nil, fmt.Errorf("bionimbus: no dataset %q", name)
	}
	if c.Secure && !c.enrolled[user] {
		return nil, fmt.Errorf("bionimbus: %s not enrolled in %s", user, c.Name)
	}
	f, err := c.volume.Read(d.path())
	if err != nil {
		return nil, err
	}
	return f.Content, nil
}

// --- the analysis pipeline ---

// Alignment is one read placed on the reference.
type Alignment struct {
	ReadIndex  int
	Pos        int // reference offset
	Mismatches int
}

// Variant is a called difference against the reference.
type Variant struct {
	Pos      int
	Ref      byte
	Alt      byte
	Depth    int
	AltCount int
}

// KmerSize is the aligner's seed length.
const KmerSize = 16

// Aligner is a k-mer seed index over a reference sequence.
type Aligner struct {
	ref   []byte
	index map[string][]int
}

// NewAligner indexes the reference.
func NewAligner(ref []byte) *Aligner {
	a := &Aligner{ref: ref, index: make(map[string][]int)}
	for i := 0; i+KmerSize <= len(ref); i++ {
		k := string(ref[i : i+KmerSize])
		a.index[k] = append(a.index[k], i)
	}
	return a
}

// Align seeds each read by its first k-mer and extends, returning the best
// placement (fewest mismatches) if it clears maxMismatch.
func (a *Aligner) Align(reads [][]byte, maxMismatch int) []Alignment {
	var out []Alignment
	for ri, read := range reads {
		if len(read) < KmerSize {
			continue
		}
		best := Alignment{ReadIndex: ri, Pos: -1, Mismatches: maxMismatch + 1}
		// Try several seed positions to survive mutations in the first kmer.
		for _, seedOff := range []int{0, KmerSize, 2 * KmerSize} {
			if seedOff+KmerSize > len(read) {
				break
			}
			seed := string(read[seedOff : seedOff+KmerSize])
			for _, hit := range a.index[seed] {
				pos := hit - seedOff
				if pos < 0 || pos+len(read) > len(a.ref) {
					continue
				}
				mm := 0
				for j := range read {
					if read[j] != a.ref[pos+j] {
						mm++
						if mm > maxMismatch {
							break
						}
					}
				}
				if mm < best.Mismatches {
					best = Alignment{ReadIndex: ri, Pos: pos, Mismatches: mm}
				}
			}
		}
		if best.Pos >= 0 && best.Mismatches <= maxMismatch {
			out = append(out, best)
		}
	}
	return out
}

// CallVariants does a pileup over alignments and calls positions where the
// alternate allele fraction is at least minFrac with at least minDepth
// coverage.
func CallVariants(ref []byte, reads [][]byte, alignments []Alignment, minDepth int, minFrac float64) []Variant {
	type pile struct {
		depth int
		alts  map[byte]int
	}
	piles := make(map[int]*pile)
	for _, al := range alignments {
		read := reads[al.ReadIndex]
		for j, b := range read {
			pos := al.Pos + j
			p := piles[pos]
			if p == nil {
				p = &pile{alts: make(map[byte]int)}
				piles[pos] = p
			}
			p.depth++
			if b != ref[pos] {
				p.alts[b]++
			}
		}
	}
	var out []Variant
	for pos, p := range piles {
		if p.depth < minDepth {
			continue
		}
		for alt, n := range p.alts {
			if float64(n)/float64(p.depth) >= minFrac {
				out = append(out, Variant{Pos: pos, Ref: ref[pos], Alt: alt, Depth: p.depth, AltCount: n})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// Pipeline runs align+call end to end, the workload the curated VM image
// packages.
func Pipeline(ref []byte, reads [][]byte) []Variant {
	a := NewAligner(ref)
	alignments := a.Align(reads, 8)
	return CallVariants(ref, reads, alignments, 4, 0.6)
}
