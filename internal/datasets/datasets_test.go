package datasets

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"osdc/internal/ark"
	"osdc/internal/dfs"
	"osdc/internal/sim"
	"osdc/internal/simdisk"
)

func newCatalog(t *testing.T) *Catalog {
	t.Helper()
	e := sim.NewEngine(3)
	var bricks []*dfs.Brick
	for i := 0; i < 2; i++ {
		d := simdisk.New("d", 2<<50)
		bricks = append(bricks, dfs.NewBrick("b", d))
	}
	// unique names required per volume; adjust
	bricks[0].Name, bricks[1].Name = "b0", "b1"
	vol, err := dfs.NewVolume(e, 1, dfs.Version33, bricks)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCatalog(ark.NewService(), vol)
	c.AddCurator("walt")
	return c
}

func TestPublishMintsARKAndStores(t *testing.T) {
	c := newCatalog(t)
	d, err := c.Publish("walt", Dataset{Name: "Test Set", Discipline: "biology", SizeBytes: 1 << 40, Public: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(d.ARK, "ark:/") {
		t.Fatalf("no ARK minted: %q", d.ARK)
	}
}

// TestCatalogConcurrentDownloadAndSearch is the -race stress for the
// catalog's locking: the datastore coordinator embeds the catalog, reading
// it from planning rounds while the console searches and curators publish.
// Exact counts are asserted so a lost publish surfaces even without -race.
func TestCatalogConcurrentDownloadAndSearch(t *testing.T) {
	c := newCatalog(t)
	const publishers, perPublisher, size = 4, 50, int64(1) << 30
	var readers, pubs sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				n := len(c.Search("stress"))
				if n < last {
					t.Errorf("search saw %d datasets after %d", n, last)
					return
				}
				last = n
				if got := totalBytes(c.All()); got < int64(n)*size {
					t.Errorf("total bytes = %d behind %d searched datasets", got, n)
					return
				}
				c.All()
			}
		}()
	}
	for p := 0; p < publishers; p++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for i := 0; i < perPublisher; i++ {
				name := fmt.Sprintf("Stress %d-%d", p, i)
				if _, err := c.Publish("walt", Dataset{Name: name, SizeBytes: size, Discipline: "biology"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	pubs.Wait()
	close(done)
	readers.Wait()
	const want = publishers * perPublisher
	if got := len(c.Search("stress")); got != want {
		t.Fatalf("Search found %d datasets, want %d", got, want)
	}
	if got := totalBytes(c.All()); got != want*size {
		t.Fatalf("total bytes = %d, want %d", got, want*size)
	}
	if got := c.ids.Minted; got != want {
		t.Fatalf("minted %d ARKs, want %d", got, want)
	}
}

// totalBytes sums the sizes of ds.
func totalBytes(ds []*Dataset) int64 {
	var n int64
	for _, d := range ds {
		n += d.SizeBytes
	}
	return n
}

func TestOnlyCuratorsPublish(t *testing.T) {
	c := newCatalog(t)
	if _, err := c.Publish("randomuser", Dataset{Name: "X", SizeBytes: 1}); err == nil {
		t.Fatal("non-curator published")
	}
}

func TestDuplicateRejected(t *testing.T) {
	c := newCatalog(t)
	if _, err := c.Publish("walt", Dataset{Name: "Dup", SizeBytes: 1, Discipline: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Publish("walt", Dataset{Name: "Dup", SizeBytes: 1, Discipline: "x"}); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestValidation(t *testing.T) {
	c := newCatalog(t)
	if _, err := c.Publish("walt", Dataset{Name: "", SizeBytes: 5}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := c.Publish("walt", Dataset{Name: "Zero", SizeBytes: 0}); err == nil {
		t.Fatal("zero size accepted")
	}
}

func TestSearch(t *testing.T) {
	c := newCatalog(t)
	for _, d := range PaperDatasets() {
		if _, err := c.Publish("walt", d); err != nil {
			t.Fatal(err)
		}
	}
	hits := c.Search("genom")
	if len(hits) < 2 {
		t.Fatalf("search 'genom' found %d, want ≥2 (1000 Genomes, NCBI/modENCODE tags)", len(hits))
	}
	if got := c.Search("hyperion"); len(got) != 0 {
		// Desc says "EO-1 satellite imagery"; hyperion is in the name only.
		for _, d := range got {
			if !strings.Contains(strings.ToLower(d.Name), "hyperion") {
				t.Fatalf("bogus hit %q", d.Name)
			}
		}
	}
	if len(c.Search("")) != len(PaperDatasets()) {
		t.Fatal("empty query must return all")
	}
}

func TestPaperAggregates(t *testing.T) {
	c := newCatalog(t)
	for _, d := range PaperDatasets() {
		if _, err := c.Publish("walt", d); err != nil {
			t.Fatal(err)
		}
	}
	const tb = int64(1) << 40
	// §6.3: more than 600 TB of public datasets.
	if total := totalBytes(c.All()); total < 600*tb || total > 700*tb {
		t.Fatalf("total = %d TB, want 600–700 TB", total/tb)
	}
	// §4.1: over 400 TB for the biological sciences.
	var biology, eo1 int64
	for _, d := range c.All() {
		if d.Discipline == "biology" {
			biology += d.SizeBytes
		}
		if d.Name == "EO-1 ALI and Hyperion" {
			eo1 = d.SizeBytes
		}
	}
	if biology < 400*tb {
		t.Fatalf("biology = %d TB, want >400 TB", biology/tb)
	}
	// §4.2: ~30 TB of EO-1 data.
	if eo1 != 30*tb {
		t.Fatal("EO-1 dataset wrong")
	}
}
