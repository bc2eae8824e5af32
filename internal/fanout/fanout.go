// Package fanout provides the bounded worker pool the federation's
// coordinators and pollers push through: N tasks (one per site) run over
// at most `workers` goroutines, each task under its own wall deadline so
// one hung site cannot eat the whole coordination interval (ROADMAP:
// coordinator fan-out), and each task's result comes back by value.
//
// A task's deadline is its context's: each task gets the round's context
// bounded by the per-task budget, and passes it to the call it makes, so
// a site still unanswered at the deadline has its request cancelled on
// the wire and the task returns. Run returns once every task has
// returned; a task that returned after its context ended is reported
// incomplete and its result dropped. Nothing outlives the round.
//
// Every is the one loop those rounds run on in wall time, and
// RoundDeadline the one rule for each round's per-task deadline.
package fanout

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Group runs one fixed set of n tasks, once per Run, reusing its result
// buffers from run to run — the shape of a poller that fans out to the
// same sites every tick. Run must not be called concurrently with itself.
type Group[T any] struct {
	workers int
	task    func(ctx context.Context, i int) T
	res     []T
	done    []bool
}

// NewGroup builds a group of n tasks; task(ctx, i) computes task i's
// result and gives up when ctx ends. workers < 1 means one.
func NewGroup[T any](workers, n int, task func(ctx context.Context, i int) T) *Group[T] {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return &Group[T]{workers: workers, task: task, res: make([]T, n), done: make([]bool, n)}
}

// Run executes every task over the group's workers, each under ctx
// bounded by perTask of wall time (perTask <= 0 adds no bound), and
// returns once every task has returned. It returns each task's result and
// whether the task returned before its context ended; an incomplete
// task's result is T's zero value. The slices are the group's buffers:
// they stay as returned until the next Run, which overwrites them.
func (g *Group[T]) Run(ctx context.Context, perTask time.Duration) ([]T, []bool) {
	clear(g.res)
	clear(g.done)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(g.workers)
	for w := 0; w < g.workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(g.res); i = int(next.Add(1) - 1) {
				g.runOne(ctx, i, perTask)
			}
		}()
	}
	wg.Wait()
	return g.res, g.done
}

// Each is the one-shot form: it runs task(ctx, 0..n-1) once through a
// fresh Group.
func Each[T any](ctx context.Context, workers int, perTask time.Duration, n int, task func(ctx context.Context, i int) T) ([]T, []bool) {
	return NewGroup(workers, n, task).Run(ctx, perTask)
}

// runOne executes task i under its deadline and keeps its result only if
// the task returned before its context ended.
func (g *Group[T]) runOne(ctx context.Context, i int, perTask time.Duration) {
	if perTask > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, perTask)
		defer cancel()
	}
	v := g.task(ctx, i)
	if ctx.Err() == nil {
		g.res[i], g.done[i] = v, true
	}
}
