package sim

import (
	"fmt"
	"testing"
	"time"
)

// churnTrace runs a fixed self-rescheduling workload on e and returns the
// (time, draw) trace — a fingerprint of both dispatch order and RNG state.
func churnTrace(e *Engine, n int) []float64 {
	var trace []float64
	var step func()
	step = func() {
		trace = append(trace, float64(e.Now()), e.RNG().Float64())
		if len(trace) < 2*n {
			e.After(e.RNG().Exp(1.0), step)
		}
	}
	e.After(0, step)
	e.Run()
	return trace
}

// TestShardSetK1BitIdentical pins the golden-compatibility contract: a
// K=1 ShardSet's anchor is seeded exactly like a bare engine, so every
// event time and RNG draw matches bit for bit.
func TestShardSetK1BitIdentical(t *testing.T) {
	bare := churnTrace(NewEngine(2012), 500)
	set := NewShardSet(2012, 1)
	sharded := churnTrace(set.Anchor(), 500)
	if len(bare) != len(sharded) {
		t.Fatalf("trace lengths differ: %d vs %d", len(bare), len(sharded))
	}
	for i := range bare {
		if bare[i] != sharded[i] {
			t.Fatalf("K=1 trace diverges at %d: %v vs %v", i, bare[i], sharded[i])
		}
	}
}

func TestShardKeyingStableAndSpread(t *testing.T) {
	set := NewShardSet(1, 8)
	counts := make([]int, 8)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("i-%06d", i)
		a, b := set.ShardIndex(key), set.ShardIndex(key)
		if a != b {
			t.Fatalf("ShardIndex(%q) unstable: %d vs %d", key, a, b)
		}
		if set.Shard(key) != set.ShardAt(a) {
			t.Fatalf("Shard(%q) disagrees with ShardIndex", key)
		}
		counts[a]++
	}
	for i, c := range counts {
		if c < 50 {
			t.Fatalf("shard %d got %d of 1000 keys — hash badly skewed: %v", i, c, counts)
		}
	}
}

// TestShardSetCommonTarget: RunUntil advances every shard to the same
// deadline, events land on their owning shards, and skew is zero at the
// barrier.
func TestShardSetCommonTarget(t *testing.T) {
	set := NewShardSet(7, 4)
	firedOn := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		set.ShardAt(i).At(Time(10+i), func() { firedOn[i]++ })
	}
	set.RunUntil(20)
	if set.Now() != 20 {
		t.Fatalf("Now = %v after RunUntil(20)", set.Now())
	}
	if set.Skew() != 0 {
		t.Fatalf("Skew = %v at barrier, want 0", set.Skew())
	}
	for i, n := range firedOn {
		if n != 1 {
			t.Fatalf("shard %d fired %d events, want 1", i, n)
		}
	}
	if set.Fired() != 4 {
		t.Fatalf("Fired = %d, want 4", set.Fired())
	}
	if set.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", set.Pending())
	}
}

// TestShardSetParallelDeterminism: the same per-shard workload produces
// identical traces run-to-run even though shards advance concurrently —
// shards share nothing, so goroutine interleaving cannot reorder events.
func TestShardSetParallelDeterminism(t *testing.T) {
	run := func() [][]float64 {
		set := NewShardSet(2012, 4)
		traces := make([][]float64, 4)
		for i := 0; i < 4; i++ {
			i := i
			e := set.ShardAt(i)
			var step func()
			n := 0
			step = func() {
				traces[i] = append(traces[i], float64(e.Now()), e.RNG().Float64())
				n++
				if n < 200 {
					e.After(e.RNG().Exp(0.5), step)
				}
			}
			e.After(0, step)
		}
		for set.Pending() > 0 {
			set.RunFor(10)
		}
		return traces
	}
	a, b := run(), run()
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("shard %d trace lengths differ: %d vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("shard %d trace diverges at %d", i, j)
			}
		}
	}
	// Different shards must not share a stream.
	same := len(a[0]) == len(a[1])
	if same {
		for j := range a[0] {
			if a[0][j] != a[1][j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("shards 0 and 1 produced identical traces — seed separation broken")
	}
}

func TestShardDriverAdvancesAllShards(t *testing.T) {
	set := NewShardSet(1, 3)
	h := newHandTicks(t)
	d := newDriver(set, 1000, h.feed())
	defer d.Stop()
	if d.Engine() != set.Anchor() {
		t.Fatal("shard driver's Engine() is not the anchor")
	}
	h.tick(time.Second)
	// Every shard runs to the tick's common target.
	for i := 0; i < set.K(); i++ {
		if now := set.ShardAt(i).Now(); now != 1000 {
			t.Fatalf("shard %d at %v after one tick, want 1000", i, now)
		}
	}
}

func TestShardFollowerHoldsAndCatchesUp(t *testing.T) {
	set := NewShardSet(1, 3)
	h := newHandTicks(t)
	f := newFollower(set, 0, h.feed())
	defer f.Stop()
	h.tick(time.Millisecond)
	if now := set.Now(); now != 0 {
		t.Fatalf("follower moved to %v with no target", now)
	}
	f.SetTarget(500)
	h.tick(time.Millisecond)
	for i := 0; i < set.K(); i++ {
		if now := set.ShardAt(i).Now(); now != 500 {
			t.Fatalf("shard %d at %v after one tick, want the target 500", i, now)
		}
	}
	if lag := f.Target() - set.Now(); lag != 0 {
		t.Fatalf("lag = %v at target", lag)
	}
}
