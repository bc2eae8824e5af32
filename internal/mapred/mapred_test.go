package mapred

import (
	"fmt"
	"strings"
	"testing"

	"osdc/internal/sim"
)

func testCluster(t *testing.T, nodes, slots int, blockSize int64) (*sim.Engine, *Cluster) {
	t.Helper()
	e := sim.NewEngine(31)
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("dn%02d", i)
	}
	fs := NewHDFS(e, names, blockSize, 3)
	return e, NewCluster(e, fs, slots)
}

func wordCount(key string, value []byte, emit func(k, v string)) {
	for _, w := range strings.Fields(string(value)) {
		emit(w, "1")
	}
}

func TestHDFSBlockSplitting(t *testing.T) {
	e := sim.NewEngine(1)
	fs := NewHDFS(e, []string{"a", "b", "c", "d"}, 100, 3)
	data := make([]byte, 250)
	blocks := fs.Put("/f", data)
	if len(blocks) != 3 {
		t.Fatalf("250 bytes / 100 block = %d blocks, want 3", len(blocks))
	}
	if blocks[2].Size != 50 {
		t.Fatalf("tail block size = %d, want 50", blocks[2].Size)
	}
	stored, err := fs.Blocks("/f")
	var size int64
	for _, b := range stored {
		size += b.Size
	}
	if err != nil || size != 250 {
		t.Fatalf("size = %d, %v", size, err)
	}
}

func TestHDFSReplication(t *testing.T) {
	e := sim.NewEngine(1)
	fs := NewHDFS(e, []string{"a", "b", "c", "d", "e"}, 100, 3)
	blocks := fs.Put("/f", make([]byte, 100))
	if len(blocks[0].Nodes) != 3 {
		t.Fatalf("replicas = %d, want 3", len(blocks[0].Nodes))
	}
	seen := map[string]bool{}
	for _, n := range blocks[0].Nodes {
		if seen[n] {
			t.Fatal("replica placed twice on one node")
		}
		seen[n] = true
	}
}

func TestHDFSReplicationClampedToNodes(t *testing.T) {
	e := sim.NewEngine(1)
	fs := NewHDFS(e, []string{"only"}, 100, 3)
	blocks := fs.Put("/f", make([]byte, 10))
	if len(blocks[0].Nodes) != 1 {
		t.Fatalf("replicas = %d on 1-node cluster, want 1", len(blocks[0].Nodes))
	}
}

func TestHDFSMissingFile(t *testing.T) {
	e := sim.NewEngine(1)
	fs := NewHDFS(e, []string{"a"}, 100, 1)
	if _, err := fs.Blocks("/nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestJobAdvancesClockAndRecordsTasks(t *testing.T) {
	e, c := testCluster(t, 4, 2, 1<<20)
	before := e.Now()
	c.HDFS.Put("/in/x", make([]byte, 5<<20)) // 5 blocks
	res, err := c.Run(Job{Name: "j", Input: []string{"/in/x"}, Map: wordCount})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration() <= 0 {
		t.Fatal("job took no time")
	}
	if e.Now() <= before {
		t.Fatal("engine clock did not advance")
	}
	if res.MapTasks != 5 {
		t.Fatalf("map tasks = %d, want 5", res.MapTasks)
	}
}

func TestDataLocalityPreferred(t *testing.T) {
	// With replication 3 over 8 nodes and free slots everywhere, nearly
	// every map task should be data-local.
	e, c := testCluster(t, 8, 2, 1<<20)
	_ = e
	c.HDFS.Put("/in/big", make([]byte, 40<<20)) // 40 tasks
	res, err := c.Run(Job{Name: "loc", Input: []string{"/in/big"}, Map: wordCount})
	if err != nil {
		t.Fatal(err)
	}
	if lf := res.LocalityFraction(); lf < 0.85 {
		t.Fatalf("locality = %.2f, want ≥0.85", lf)
	}
}

func TestMoreSlotsFasterJob(t *testing.T) {
	run := func(slots int) sim.Duration {
		_, c := testCluster(t, 4, slots, 1<<20)
		c.HDFS.Put("/in/x", make([]byte, 64<<20))
		res, err := c.Run(Job{Name: "speed", Input: []string{"/in/x"}, Map: wordCount})
		if err != nil {
			t.Fatal(err)
		}
		return res.Duration()
	}
	slow := run(1)
	fast := run(4)
	if fast >= slow {
		t.Fatalf("4 slots (%v) not faster than 1 slot (%v)", fast, slow)
	}
}

func TestJobValidation(t *testing.T) {
	_, c := testCluster(t, 2, 1, 100)
	if _, err := c.Run(Job{Name: "bad"}); err == nil {
		t.Fatal("job without Map must fail")
	}
	if _, err := c.Run(Job{Name: "bad2", Input: []string{"/missing"}, Map: wordCount}); err == nil {
		t.Fatal("job with missing input must fail")
	}
}
