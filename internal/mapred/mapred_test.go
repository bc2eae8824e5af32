package mapred

import (
	"fmt"
	"strconv"
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
	return e, NewCluster(e, "occ-y", fs, slots)
}

func wordCount() (MapFunc, ReduceFunc) {
	m := func(key string, value []byte, emit func(k, v string)) {
		for _, w := range strings.Fields(string(value)) {
			emit(w, "1")
		}
	}
	r := func(key string, values []string, emit func(k, v string)) {
		emit(key, strconv.Itoa(len(values)))
	}
	return m, r
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

func TestWordCountCorrectness(t *testing.T) {
	e, c := testCluster(t, 4, 2, 64)
	_ = e
	c.HDFS.Put("/in/doc1", []byte("flood fire flood"))
	c.HDFS.Put("/in/doc2", []byte("fire fire water"))
	m, r := wordCount()
	res, err := c.Run(Job{Name: "wc", Input: []string{"/in/doc1", "/in/doc2"}, Map: m, Reduce: r, Reducers: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"flood": "2", "fire": "3", "water": "1"}
	if len(res.Output) != len(want) {
		t.Fatalf("output = %v", res.Output)
	}
	for _, kv := range res.Output {
		if want[kv.Key] != kv.Value {
			t.Fatalf("%s = %s, want %s", kv.Key, kv.Value, want[kv.Key])
		}
	}
}

func TestJobAdvancesClockAndRecordsTasks(t *testing.T) {
	e, c := testCluster(t, 4, 2, 1<<20)
	before := e.Now()
	c.HDFS.Put("/in/x", make([]byte, 5<<20)) // 5 blocks
	m, r := wordCount()
	res, err := c.Run(Job{Name: "j", Input: []string{"/in/x"}, Map: m, Reduce: r})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration() <= 0 {
		t.Fatal("job took no time")
	}
	if e.Now() <= before {
		t.Fatal("engine clock did not advance")
	}
	if len(res.MapTasks) != 5 {
		t.Fatalf("map tasks = %d, want 5", len(res.MapTasks))
	}
}

func TestDataLocalityPreferred(t *testing.T) {
	// With replication 3 over 8 nodes and free slots everywhere, nearly
	// every map task should be data-local.
	e, c := testCluster(t, 8, 2, 1<<20)
	_ = e
	c.HDFS.Put("/in/big", make([]byte, 40<<20)) // 40 tasks
	m, r := wordCount()
	res, err := c.Run(Job{Name: "loc", Input: []string{"/in/big"}, Map: m, Reduce: r})
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
		m, r := wordCount()
		res, err := c.Run(Job{Name: "speed", Input: []string{"/in/x"}, Map: m, Reduce: r})
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
		t.Fatal("job without Map/Reduce must fail")
	}
	m, r := wordCount()
	if _, err := c.Run(Job{Name: "bad2", Input: []string{"/missing"}, Map: m, Reduce: r}); err == nil {
		t.Fatal("job with missing input must fail")
	}
}

func TestReducerPartitioningCoversAllKeys(t *testing.T) {
	_, c := testCluster(t, 4, 2, 32)
	var doc strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&doc, "k%02d ", i%50)
	}
	c.HDFS.Put("/in/keys", []byte(doc.String()))
	m, r := wordCount()
	res, err := c.Run(Job{Name: "p", Input: []string{"/in/keys"}, Map: m, Reduce: r, Reducers: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 50 {
		t.Fatalf("keys out = %d, want 50", len(res.Output))
	}
}

func TestOutputDeterministicOrder(t *testing.T) {
	for trial := 0; trial < 2; trial++ {
		_, c := testCluster(t, 4, 2, 64)
		c.HDFS.Put("/in/d", []byte("b a c a b a"))
		m, r := wordCount()
		res, err := c.Run(Job{Name: "det", Input: []string{"/in/d"}, Map: m, Reduce: r, Reducers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Output[0].Key != "a" || res.Output[1].Key != "b" || res.Output[2].Key != "c" {
			t.Fatalf("output order = %v", res.Output)
		}
	}
}
