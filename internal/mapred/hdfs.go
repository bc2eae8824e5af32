// Package mapred implements the Hadoop-like data clouds of the OSDC (paper
// §3.2, Table 2: OCC-Y with 928 cores and OCC-Matsu with ~120 cores).
//
// It provides HDFS-lite — a block-oriented store with rack-unaware random
// replica placement — and a MapReduce engine with a JobTracker that
// schedules map tasks for data locality, a hash-partitioned shuffle, and
// reduce tasks timed from the bytes shuffled to them. Map functions really
// execute over the stored bytes, and task timing runs on the simulation
// engine, so a job's duration comes out of a run. Project Matsu's
// flood-detection analytics (internal/matsu) run on this engine.
package mapred

import (
	"fmt"
	"sort"

	"osdc/internal/sim"
)

// DefaultBlockSize is the HDFS block size (64 MB, the Hadoop-1.x default).
const DefaultBlockSize = 64 << 20

// DefaultReplication is the HDFS replica count.
const DefaultReplication = 3

// Block is one stored block of a file.
type Block struct {
	Seq     int
	Size    int64
	Nodes   []string // datanodes holding replicas
	Content []byte
}

// HDFS is the block store.
type HDFS struct {
	BlockSize   int64
	Replication int
	nodes       []string
	files       map[string][]Block
	rng         *sim.RNG
}

// NewHDFS creates a filesystem over the given datanodes.
func NewHDFS(e *sim.Engine, nodes []string, blockSize int64, replication int) *HDFS {
	if len(nodes) == 0 {
		panic("mapred: HDFS needs at least one datanode")
	}
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if replication <= 0 {
		replication = DefaultReplication
	}
	if replication > len(nodes) {
		replication = len(nodes)
	}
	return &HDFS{
		BlockSize: blockSize, Replication: replication,
		nodes: append([]string(nil), nodes...),
		files: make(map[string][]Block),
		rng:   e.RNG().Fork(),
	}
}

// Nodes returns the datanode names.
func (h *HDFS) Nodes() []string { return append([]string(nil), h.nodes...) }

// place picks Replication distinct nodes at random (HDFS default placement
// without rack awareness).
func (h *HDFS) place() []string {
	perm := h.rng.Perm(len(h.nodes))
	out := make([]string, h.Replication)
	for i := 0; i < h.Replication; i++ {
		out[i] = h.nodes[perm[i]]
	}
	sort.Strings(out)
	return out
}

// Put stores content at path, split into blocks.
func (h *HDFS) Put(path string, content []byte) []Block {
	var blocks []Block
	for off := int64(0); off < int64(len(content)) || (off == 0 && len(content) == 0); off += h.BlockSize {
		hi := off + h.BlockSize
		if hi > int64(len(content)) {
			hi = int64(len(content))
		}
		blocks = append(blocks, Block{
			Seq: len(blocks), Size: hi - off, Nodes: h.place(),
			Content: append([]byte(nil), content[off:hi]...),
		})
		if len(content) == 0 {
			break
		}
	}
	h.files[path] = blocks
	return blocks
}

// Blocks returns a file's blocks in order.
func (h *HDFS) Blocks(path string) ([]Block, error) {
	b, ok := h.files[path]
	if !ok {
		return nil, fmt.Errorf("mapred: no such file %q", path)
	}
	return b, nil
}
