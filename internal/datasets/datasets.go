// Package datasets implements the OSDC public-dataset catalog (paper §4,
// §6.3): curator-managed dataset records with metadata, published online so
// users can browse and search them, with the bytes living on a GlusterFS
// share and every dataset carrying a persistent ARK identifier.
package datasets

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"osdc/internal/ark"
	"osdc/internal/dfs"
)

// Dataset is one catalog entry.
type Dataset struct {
	Name       string
	Discipline string // "biology", "earth science", ...
	SizeBytes  int64
	ARK        string
	Curator    string
	Desc       string
	Tags       []string
	Path       string // location on the storage volume
	Public     bool
}

// Catalog is the curated dataset registry.
//
// The console searches the catalog from concurrent HTTP handlers while
// curators publish, and the datastore coordinator embeds the catalog and
// reads it from every planning round; mu covers the curator set and the
// entry table. A *Dataset is immutable once published, so handing
// pointers out of Search/All without copying is safe.
type Catalog struct {
	ids *ark.Service
	vol *dfs.Volume

	mu       sync.RWMutex
	curators map[string]bool
	entries  map[string]*Dataset
}

// NewCatalog builds a catalog that publishes onto vol and mints IDs from
// ids.
func NewCatalog(ids *ark.Service, vol *dfs.Volume) *Catalog {
	return &Catalog{
		ids: ids, vol: vol,
		curators: make(map[string]bool),
		entries:  make(map[string]*Dataset),
	}
}

// AddCurator authorizes a data curator (§3.2: "use a community of users and
// data curators to identify data to add").
func (c *Catalog) AddCurator(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.curators[name] = true
}

// Publish registers a dataset: only curators may publish; the bytes are
// accounted on the storage volume and an ARK is minted.
func (c *Catalog) Publish(curator string, d Dataset) (*Dataset, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.curators[curator] {
		return nil, fmt.Errorf("datasets: %s is not a curator", curator)
	}
	if d.Name == "" || d.SizeBytes <= 0 {
		return nil, fmt.Errorf("datasets: dataset needs a name and positive size")
	}
	if _, ok := c.entries[d.Name]; ok {
		return nil, fmt.Errorf("datasets: %q already published", d.Name)
	}
	cp := d
	cp.Curator = curator
	if cp.Path == "" {
		cp.Path = "/glusterfs/public/" + strings.ToLower(strings.ReplaceAll(d.Name, " ", "-"))
	}
	if err := c.vol.WriteMeta(cp.Path, cp.SizeBytes); err != nil {
		return nil, fmt.Errorf("datasets: storing %s: %w", d.Name, err)
	}
	cp.ARK = c.ids.Mint()
	c.entries[cp.Name] = &cp
	return &cp, nil
}

// Search returns datasets whose name, description, discipline or tags
// contain the query (case-insensitive), sorted by name.
func (c *Catalog) Search(query string) []*Dataset {
	c.mu.RLock()
	defer c.mu.RUnlock()
	q := strings.ToLower(query)
	var out []*Dataset
	for _, d := range c.entries {
		hay := strings.ToLower(d.Name + " " + d.Desc + " " + d.Discipline + " " + strings.Join(d.Tags, " "))
		if strings.Contains(hay, q) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// All returns every entry sorted by name.
func (c *Catalog) All() []*Dataset { return c.Search("") }

const (
	tb = int64(1) << 40
	gb = int64(1) << 30
)

// PaperDatasets returns the public datasets §4 names, with sizes chosen to
// match the paper's aggregate claims: >400 TB biology, ~30 TB EO-1, >600 TB
// total public data.
func PaperDatasets() []Dataset {
	return []Dataset{
		{Name: "1000 Genomes", Discipline: "biology", SizeBytes: 260 * tb, Desc: "human genetic variation reference", Tags: []string{"genomics"}},
		{Name: "NCBI Collections", Discipline: "biology", SizeBytes: 90 * tb, Desc: "datasets available from NIH's NCBI", Tags: []string{"genomics"}},
		{Name: "Protein Data Bank", Discipline: "biology", SizeBytes: 2 * tb, Desc: "3D protein structures", Tags: []string{"structural biology"}},
		{Name: "modENCODE", Discipline: "biology", SizeBytes: 45 * tb, Desc: "model organism encyclopedia of DNA elements", Tags: []string{"genomics", "backup"}},
		{Name: "ENCODE", Discipline: "biology", SizeBytes: 20 * tb, Desc: "encyclopedia of DNA elements (backup site)", Tags: []string{"genomics", "backup"}},
		{Name: "EO-1 ALI and Hyperion", Discipline: "earth science", SizeBytes: 30 * tb, Desc: "three years of NASA EO-1 satellite imagery", Tags: []string{"matsu", "satellite"}},
		{Name: "Sloan Digital Sky Survey", Discipline: "astronomy", SizeBytes: 60 * tb, Desc: "SDSS imaging and spectra (backup)", Tags: []string{"backup"}},
		{Name: "Common Crawl", Discipline: "information science", SizeBytes: 80 * tb, Desc: "open web crawl corpus", Tags: []string{"web"}},
		{Name: "Enron Email", Discipline: "information science", SizeBytes: 1 * tb, Desc: "the Enron corpus", Tags: []string{"text"}},
		{Name: "City of Chicago Data", Discipline: "information science", SizeBytes: 2 * tb, Desc: "municipal open data", Tags: []string{"civic"}},
		{Name: "US Census", Discipline: "social science", SizeBytes: 6 * tb, Desc: "decennial census tables", Tags: []string{"census"}},
		{Name: "Current Population Survey", Discipline: "social science", SizeBytes: 2 * tb, Desc: "CPS microdata", Tags: []string{"survey"}},
		{Name: "General Social Survey", Discipline: "social science", SizeBytes: 1 * tb, Desc: "GSS attitudes survey", Tags: []string{"survey"}},
		{Name: "ICPSR Collections", Discipline: "social science", SizeBytes: 8 * tb, Desc: "inter-university consortium for political and social research", Tags: []string{"survey"}},
		{Name: "Bookworm ngrams", Discipline: "digital humanities", SizeBytes: 4 * tb, Desc: "ngrams from public-domain books with library metadata", Tags: []string{"culturomics"}},
		{Name: "Focused Crawls", Discipline: "information science", SizeBytes: 10 * tb, Desc: "results of focused web crawls", Tags: []string{"web"}},
	}
}
