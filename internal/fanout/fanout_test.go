package fanout

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEachRunsEveryTask(t *testing.T) {
	var ran int64
	res, done := Each(8, 0, 50, func(i int) int {
		atomic.AddInt64(&ran, 1)
		return i * i
	})
	if ran != 50 {
		t.Fatalf("ran %d tasks, want 50", ran)
	}
	for i, ok := range done {
		if !ok {
			t.Fatalf("task %d reported incomplete", i)
		}
		if res[i] != i*i {
			t.Fatalf("task %d returned %d, want %d", i, res[i], i*i)
		}
	}
}

func TestEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak int64
	var mu sync.Mutex
	Each(workers, 0, 20, func(int) struct{} {
		n := atomic.AddInt64(&cur, 1)
		mu.Lock()
		if n > peak {
			peak = n
		}
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		atomic.AddInt64(&cur, -1)
		return struct{}{}
	})
	mu.Lock()
	defer mu.Unlock()
	if peak > workers {
		t.Fatalf("observed %d concurrent tasks, want <= %d", peak, workers)
	}
}

// awaitLate waits until an abandoned task has returned (*finished != 0),
// then gives the late write that follows it — if the group let one
// through — time to land: a write that must not happen has no event to
// wait on.
func awaitLate(t *testing.T, finished *int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for atomic.LoadInt64(finished) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned task never finished")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
}

func TestEachAbandonsOverrunningTask(t *testing.T) {
	release := make(chan struct{})
	var slowFinished int64
	start := time.Now()
	res, done := Each(2, 20*time.Millisecond, 2, func(i int) int {
		if i == 0 {
			<-release
			atomic.AddInt64(&slowFinished, 1)
			return -1
		}
		return 1
	})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Each blocked %v on a hung task", elapsed)
	}
	if done[0] || res[0] != 0 {
		t.Fatalf("hung task reported complete: %v %v", res[0], done[0])
	}
	if !done[1] || res[1] != 1 {
		t.Fatalf("fast task reported incomplete: %v %v", res[1], done[1])
	}
	// The abandoned task still runs to completion in the background, and
	// its late result lands nowhere the caller can see.
	close(release)
	awaitLate(t, &slowFinished)
	if done[0] || res[0] != 0 || !done[1] || res[1] != 1 {
		t.Fatalf("a late writer changed the returned slices: res %v done %v", res, done)
	}

	// On a reused Group, run 2's result for the index run 1 abandoned is
	// run 2's own, even after run 1's task finishes late.
	release = make(chan struct{})
	var run, lateFinished int64
	g := NewGroup(2, 2, func(i int) int64 {
		r := atomic.LoadInt64(&run)
		if i == 0 && r == 1 {
			<-release
			atomic.AddInt64(&lateFinished, 1)
		}
		return r
	})
	atomic.StoreInt64(&run, 1)
	if _, done := g.Run(20 * time.Millisecond); done[0] || !done[1] {
		t.Fatalf("run 1 completion = %v, want [false true]", done)
	}
	atomic.StoreInt64(&run, 2)
	res2, done2 := g.Run(20 * time.Millisecond)
	close(release)
	awaitLate(t, &lateFinished)
	if !done2[0] || res2[0] != 2 || !done2[1] || res2[1] != 2 {
		t.Fatalf("run 2 = %v %v, want [2 2] [true true]: run 1's late value leaked in", res2, done2)
	}
}

func TestEachEmptyAndSmall(t *testing.T) {
	if res, done := Each(4, 0, 0, func(int) int { return 1 }); len(res) != 0 || len(done) != 0 {
		t.Fatalf("Each over no tasks = %v %v", res, done)
	}
	// More workers than tasks, and a non-positive worker count.
	ran := false
	if _, done := Each(0, 0, 1, func(int) bool { ran = true; return true }); !done[0] || !ran {
		t.Fatalf("single task not run: %v", done)
	}
}
