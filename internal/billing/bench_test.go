package billing

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"osdc/internal/sim"
)

// TestShardedAccrualConcurrent drives accruals and reads for many users
// from many goroutines and checks no sample is lost: the sharded
// accumulators must behave exactly like the old single-mutex map.
func TestShardedAccrualConcurrent(t *testing.T) {
	b := New(sim.NewEngine(1), nil)
	const users, perUser = 64, 200
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		name := fmt.Sprintf("user%02d", u)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perUser; i++ {
				b.accrueCores(name, 4)
				_ = b.CurrentUsage(name)
			}
		}()
	}
	wg.Wait()
	for u := 0; u < users; u++ {
		name := fmt.Sprintf("user%02d", u)
		usage := b.CurrentUsage(name)
		if usage.CoreMinutes != perUser*4 {
			t.Fatalf("%s: core-minutes=%v, want %d", name, usage.CoreMinutes, perUser*4)
		}
	}
}

// TestShardsSpreadUsers pins that the FNV hash actually spreads a user
// population across shards instead of collapsing onto a few locks.
func TestShardsSpreadUsers(t *testing.T) {
	b := New(sim.NewEngine(1), nil)
	for u := 0; u < 1024; u++ {
		b.accrueCores(fmt.Sprintf("user%04d", u), 1)
	}
	occupied := 0
	for i := range b.shards {
		b.shards[i].mu.Lock()
		if len(b.shards[i].usage) > 0 {
			occupied++
		}
		b.shards[i].mu.Unlock()
	}
	if occupied != usageShards {
		t.Fatalf("1024 users occupy %d/%d shards", occupied, usageShards)
	}
}

// BenchmarkBillerParallelAccrual is the contention benchmark the sharding
// exists for: every worker accrues minute-samples and reads usage for its
// own slice of a large user population, the access pattern of pollers
// racing console reads. Compare -cpu 1,4,16 to see the shards scale.
func BenchmarkBillerParallelAccrual(b *testing.B) {
	biller := New(sim.NewEngine(1), nil)
	const users = 1024
	names := make([]string, users)
	for i := range names {
		names[i] = fmt.Sprintf("user%04d", i)
	}
	var next int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each worker walks the population from its own offset so workers
		// collide on shards, not on a single user.
		i := int(atomic.AddInt64(&next, 257))
		for pb.Next() {
			name := names[i%users]
			biller.accrueCores(name, 4)
			_ = biller.CurrentUsage(name)
			i++
		}
	})
}
