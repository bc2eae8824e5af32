package mapred

import (
	"fmt"
	"hash/fnv"

	"osdc/internal/sim"
)

// MapFunc processes one input block and emits intermediate pairs. The input
// key is "path:blockSeq"; value is the block's bytes.
type MapFunc func(key string, value []byte, emit func(k, v string))

// Job describes one MapReduce job. Its reduce phase is timed from the
// shuffle volume each partition receives.
type Job struct {
	Name     string
	Input    []string // HDFS paths
	Map      MapFunc
	Reducers int // number of reduce partitions (default 1)
}

// Result is a completed job.
type Result struct {
	MapTasks   int // one per input block
	LocalTasks int // map tasks that ran on a node holding a replica
	Started    sim.Time
	Finished   sim.Time
}

// Duration returns the job wall-clock time.
func (r *Result) Duration() sim.Duration { return sim.Duration(r.Finished - r.Started) }

// LocalityFraction returns the share of map tasks that ran data-local —
// the number Hadoop operators watch.
func (r *Result) LocalityFraction() float64 {
	if r.MapTasks == 0 {
		return 0
	}
	return float64(r.LocalTasks) / float64(r.MapTasks)
}

// Cluster is a Hadoop-like compute cluster: a JobTracker over TaskTrackers
// co-located with HDFS datanodes.
type Cluster struct {
	HDFS   *HDFS
	engine *sim.Engine
	slots  map[string]int // node -> map slots
	// Throughput model: how fast a map slot streams its input.
	LocalBps  float64 // reading a local replica
	RemoteBps float64 // reading across the rack switch
}

// NewCluster builds a cluster whose TaskTrackers are the HDFS datanodes.
// slotsPerNode is the concurrent map-task capacity per node.
func NewCluster(e *sim.Engine, fs *HDFS, slotsPerNode int) *Cluster {
	if slotsPerNode <= 0 {
		panic("mapred: slotsPerNode must be positive")
	}
	slots := make(map[string]int)
	for _, n := range fs.Nodes() {
		slots[n] = slotsPerNode
	}
	return &Cluster{
		HDFS: fs, engine: e, slots: slots,
		LocalBps: 800e6, RemoteBps: 400e6, // 2012 SATA vs oversubscribed ToR
	}
}

// TotalSlots returns the cluster's concurrent map capacity.
func (c *Cluster) TotalSlots() int {
	n := 0
	for _, s := range c.slots {
		n += s
	}
	return n
}

// Run executes a job to completion on the simulation engine and returns its
// result. The engine is advanced internally (Run drives the clock).
func (c *Cluster) Run(job Job) (*Result, error) {
	if job.Map == nil {
		return nil, fmt.Errorf("mapred: job %q needs Map", job.Name)
	}
	if job.Reducers <= 0 {
		job.Reducers = 1
	}
	res := &Result{Started: c.engine.Now()}

	// Collect input splits: one map task per block.
	type split struct {
		path  string
		block Block
	}
	var splits []split
	for _, p := range job.Input {
		blocks, err := c.HDFS.Blocks(p)
		if err != nil {
			return nil, err
		}
		for _, b := range blocks {
			splits = append(splits, split{p, b})
		}
	}

	// JobTracker scheduling: greedy wave-by-wave assignment, preferring
	// data-local slots (the Hadoop delay-scheduling outcome). free[node]
	// tracks when each slot frees up; we model each node as slotsPerNode
	// parallel lanes.
	type lane struct {
		node string
		free sim.Time
	}
	var lanes []lane
	nodes := c.HDFS.Nodes()
	for _, n := range nodes {
		for i := 0; i < c.slots[n]; i++ {
			lanes = append(lanes, lane{node: n, free: c.engine.Now()})
		}
	}

	shuffled := make(map[string]int64) // intermediate value bytes per key
	var mapEnd sim.Time
	for _, sp := range splits {
		// Choose the earliest-free lane, breaking ties toward data-local.
		best := -1
		for i := range lanes {
			if best == -1 {
				best = i
				continue
			}
			li, lb := lanes[i], lanes[best]
			iLocal := hasNode(sp.block.Nodes, li.node)
			bLocal := hasNode(sp.block.Nodes, lb.node)
			switch {
			case li.free < lb.free && (iLocal || !bLocal):
				best = i
			case iLocal && !bLocal && li.free <= lb.free:
				best = i
			}
		}
		ln := &lanes[best]
		local := hasNode(sp.block.Nodes, ln.node)
		bps := c.LocalBps
		if !local {
			bps = c.RemoteBps
		}
		dur := sim.Duration(float64(sp.block.Size*8)/bps) + 0.5 // + JVM start
		start := ln.free
		end := start + sim.Time(dur)
		ln.free = end
		if end > mapEnd {
			mapEnd = end
		}
		res.MapTasks++
		if local {
			res.LocalTasks++
		}
		// Execute the user map function for real.
		key := fmt.Sprintf("%s:%d", sp.path, sp.block.Seq)
		job.Map(key, sp.block.Content, func(k, v string) {
			shuffled[k] += int64(len(v))
		})
	}

	// Shuffle: partition keys across reducers by hash; reducers start when
	// all maps finish (no slow-start modeling), and each partition's
	// reduce time scales with its shuffle volume.
	partitions := make([]int64, job.Reducers)
	for k, bytes := range shuffled {
		h := fnv.New32a()
		h.Write([]byte(k))
		partitions[int(h.Sum32())%job.Reducers] += bytes
	}
	reduceEnd := mapEnd
	for _, bytes := range partitions {
		end := mapEnd + sim.Time(float64(bytes*8)/c.RemoteBps+1.0)
		if end > reduceEnd {
			reduceEnd = end
		}
	}

	// Advance the engine to job completion.
	if reduceEnd > c.engine.Now() {
		c.engine.RunUntil(reduceEnd)
	}
	res.Finished = c.engine.Now()
	return res, nil
}

func hasNode(nodes []string, n string) bool {
	for _, x := range nodes {
		if x == n {
			return true
		}
	}
	return false
}
