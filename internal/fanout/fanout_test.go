package fanout

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEachRunsEveryTask(t *testing.T) {
	var ran int64
	res, done := Each(context.Background(), 8, 0, 50, func(_ context.Context, i int) int {
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

// TestEachBoundsConcurrency: the first `workers` tasks hold each other at
// a barrier until all of them are in, so the pool must run that many at
// once; none beyond that may ever run beside them.
func TestEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	full := make(chan struct{})
	var once sync.Once
	Each(context.Background(), workers, 0, 20, func(context.Context, int) struct{} {
		n := cur.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		if n == workers {
			once.Do(func() { close(full) })
		}
		<-full
		cur.Add(-1)
		return struct{}{}
	})
	if p := peak.Load(); p != workers {
		t.Fatalf("observed %d concurrent tasks, want exactly %d", p, workers)
	}
}

// TestEachAbandonsOverrunningTask: a hung task's context ends at its
// deadline, the task returns, and it reports incomplete with a zero
// result; Run has waited for it to return.
func TestEachAbandonsOverrunningTask(t *testing.T) {
	var cause error
	var finished atomic.Bool
	start := time.Now()
	res, done := Each(context.Background(), 2, 20*time.Millisecond, 2, func(ctx context.Context, i int) int {
		if i == 0 {
			<-ctx.Done()
			cause = ctx.Err()
			finished.Store(true)
			return -1
		}
		return 1
	})
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("Each returned after %v, want about its 20ms deadline", elapsed)
	}
	if !finished.Load() {
		t.Fatal("Each returned before the cancelled task did")
	}
	if !errors.Is(cause, context.DeadlineExceeded) {
		t.Fatalf("the hung task's context ended with %v, want its deadline", cause)
	}
	if done[0] || res[0] != 0 {
		t.Fatalf("hung task reported complete: %v %v", res[0], done[0])
	}
	if !done[1] || res[1] != 1 {
		t.Fatalf("fast task reported incomplete: %v %v", res[1], done[1])
	}
}

// TestRunUnderCancelledParent: a round whose context has already ended
// completes no task, and a reused Group reports the next round afresh.
func TestRunUnderCancelledParent(t *testing.T) {
	g := NewGroup(2, 3, func(ctx context.Context, i int) int { return i + 1 })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, done := g.Run(ctx, time.Second); done[0] || done[1] || done[2] || res[2] != 0 {
		t.Fatalf("under a cancelled parent: res %v done %v, want every task incomplete", res, done)
	}
	if res, done := g.Run(context.Background(), time.Second); !done[0] || !done[1] || !done[2] || res[2] != 3 {
		t.Fatalf("the next round: res %v done %v, want every task complete", res, done)
	}
}

func TestEachEmptyAndSmall(t *testing.T) {
	if res, done := Each(context.Background(), 4, 0, 0, func(context.Context, int) int { return 1 }); len(res) != 0 || len(done) != 0 {
		t.Fatalf("Each over no tasks = %v %v", res, done)
	}
	// More workers than tasks, and a non-positive worker count.
	ran := false
	if _, done := Each(context.Background(), 0, 0, 1, func(context.Context, int) bool { ran = true; return true }); !done[0] || !ran {
		t.Fatalf("single task not run: %v", done)
	}
}
