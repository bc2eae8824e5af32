package sim

import "testing"

// BenchmarkEngineChurn exercises the event queue the way long simulations
// do: a pool of outstanding timers where every firing reschedules itself,
// and most firings also cancel-and-replace another random timer. ns/op and
// allocs/op are per fired event; the cancel/replace traffic is what
// punishes queues that let cancelled events linger until their timestamp.
func BenchmarkEngineChurn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(2012)
	rng := NewRNG(7)
	const outstanding = 4096
	handles := make([]Handle, outstanding)
	fired := 0
	var schedule func(slot int) Handle
	schedule = func(slot int) Handle {
		return e.After(rng.Exp(1.0), func() {
			fired++
			if fired >= b.N {
				e.Halt()
				return
			}
			if victim := rng.Intn(outstanding); victim != slot {
				handles[victim].Cancel()
				handles[victim] = schedule(victim)
			}
			handles[slot] = schedule(slot)
		})
	}
	b.ResetTimer()
	for i := range handles {
		handles[i] = schedule(i)
	}
	e.Run()
}

// BenchmarkEngineChurnPooled is the churn workload rebuilt on pooled
// Timers: the same outstanding-pool cancel-and-replace shape, but every
// reschedule is a Timer.Reset reusing the closure allocated at NewTimer.
// Compare against BenchmarkEngineChurn to see what the pooling discipline
// buys — the per-schedule closure allocations drop to zero.
func BenchmarkEngineChurnPooled(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(2012)
	rng := NewRNG(7)
	const outstanding = 4096
	timers := make([]*Timer, outstanding)
	fired := 0
	for i := range timers {
		slot := i
		timers[slot] = NewTimer(e, func() {
			fired++
			if fired >= b.N {
				e.Halt()
				return
			}
			if victim := rng.Intn(outstanding); victim != slot {
				timers[victim].Reset(rng.Exp(1.0))
			}
			timers[slot].Reset(rng.Exp(1.0))
		})
	}
	b.ResetTimer()
	for i := range timers {
		timers[i].Reset(rng.Exp(1.0))
	}
	e.Run()
}

// BenchmarkShardedChurn is the churn workload spread over an 8-shard
// ShardSet with pooled timers, shards advancing in lockstep through
// RunUntil windows. ns/op is per fired event across all shards; on
// multi-core hosts the shards advance concurrently.
func BenchmarkShardedChurn(b *testing.B) {
	b.ReportAllocs()
	const k = 8
	const outstanding = 4096
	set := NewShardSet(2012, k)
	perShard := outstanding / k
	quota := b.N/k + 1
	for si := 0; si < k; si++ {
		e := set.ShardAt(si)
		rng := NewRNG(uint64(7 + si))
		timers := make([]*Timer, perShard)
		fired := 0
		for i := range timers {
			slot := i
			timers[slot] = NewTimer(e, func() {
				fired++
				if fired >= quota {
					e.Halt()
					return
				}
				if victim := rng.Intn(perShard); victim != slot {
					timers[victim].Reset(rng.Exp(1.0))
				}
				timers[slot].Reset(rng.Exp(1.0))
			})
		}
		for i := range timers {
			timers[i].Reset(rng.Exp(1.0))
		}
	}
	b.ResetTimer()
	for set.Fired() < uint64(b.N) {
		set.RunFor(64)
	}
}

// BenchmarkEngineScheduleDrain measures the pure schedule-then-pop path
// with no cancellations: b.N events pushed at random times, then drained.
func BenchmarkEngineScheduleDrain(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(2012)
	rng := NewRNG(11)
	fire := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(rng.Float64()*1000, fire)
	}
	e.Run()
}

// BenchmarkSameTickBatch measures dispatch of synchronized-timer ticks —
// 1024 events per timestamp — on a shared (locked) engine, the shape the
// batched run loop is built for: one lock round-trip drains the whole
// tick instead of one per event.
func BenchmarkSameTickBatch(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(2012)
	e.Share()
	fire := func() {}
	const width = 1024
	b.ResetTimer()
	scheduled := 0
	tick := Time(0)
	for scheduled < b.N {
		tick++
		n := width
		if rest := b.N - scheduled; rest < n {
			n = rest
		}
		for j := 0; j < n; j++ {
			e.At(tick, fire)
		}
		scheduled += n
		// Drain the tick before refilling, so the heap stays at tick
		// width and the measurement is dispatch, not heap growth.
		e.Run()
	}
}

// BenchmarkSameTickRearm is the tick the other way round: 1024 pooled
// timers aligned on one instant, each re-arming itself one period ahead
// from its callback — the heartbeat shape. The re-arms arrive back to back
// for the same instant, so they ride the heap as one run and a tick costs
// one sift each way instead of one per timer.
func BenchmarkSameTickRearm(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(2012)
	e.Share()
	const width = 1024
	for i := 0; i < width; i++ {
		var tm *Timer
		tm = NewTimer(e, func() { tm.Reset(1) })
		tm.ResetAt(1)
	}
	b.ResetTimer()
	for tick := Time(1); e.Fired() < uint64(b.N); tick++ {
		e.RunUntil(tick)
	}
}
