// Package fanout provides the bounded worker pool the federation's
// coordinators and pollers push through: N tasks (one per site) run over
// at most `workers` goroutines, each task gets a per-task wall deadline so
// one hung site cannot eat the whole coordination interval (ROADMAP:
// coordinator fan-out), and each task's result comes back by value.
//
// The pool does not cancel an overrunning task — the targets' HTTP clients
// carry their own timeouts — it merely stops waiting for it, reports it
// incomplete, and moves on. An abandoned task finishes (or times out) in
// the background, and its result is dropped: every result is written
// under the group's lock, stamped with the run that started it, and Run
// advances the stamp before it returns. A caller therefore folds only the
// tasks reported complete, on its own goroutine, and needs no guard of its
// own against a late writer.
package fanout

import (
	"sync"
	"time"
)

// Group runs one fixed set of n tasks, once per Run, reusing its result
// buffers from run to run — the shape of a poller that fans out to the
// same sites every tick. Run must not be called concurrently with itself.
type Group[T any] struct {
	workers int
	task    func(i int) T

	mu   sync.Mutex // covers run, res and done: abandoned tasks may report late
	run  uint64     // stamp of the current Run; a task from an earlier run writes nothing
	res  []T
	done []bool
}

// NewGroup builds a group of n tasks; task(i) computes task i's result.
// workers < 1 means one.
func NewGroup[T any](workers, n int, task func(i int) T) *Group[T] {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return &Group[T]{workers: workers, task: task, res: make([]T, n), done: make([]bool, n)}
}

// Run executes every task over the group's workers, waiting up to perTask
// of wall time for each (perTask <= 0 waits forever). It returns each
// task's result and whether the task completed within its deadline; an
// incomplete task's result is T's zero value. The slices are the group's
// buffers: they stay as returned until the next Run, which overwrites
// them.
func (g *Group[T]) Run(perTask time.Duration) ([]T, []bool) {
	if len(g.res) == 0 {
		return g.res, g.done
	}
	g.mu.Lock()
	run := g.run
	clear(g.res)
	clear(g.done)
	g.mu.Unlock()
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(g.workers)
	for w := 0; w < g.workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				g.runOne(run, i, perTask)
			}
		}()
	}
	for i := range g.res {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	// Advance the stamp: from here on a task of this run that finishes
	// late finds a newer run and drops its result.
	g.mu.Lock()
	g.run++
	g.mu.Unlock()
	return g.res, g.done
}

// Each is the one-shot form: it runs task(0..n-1) once through a fresh
// Group.
func Each[T any](workers int, perTask time.Duration, n int, task func(i int) T) ([]T, []bool) {
	return NewGroup(workers, n, task).Run(perTask)
}

// runOne executes task i of run, abandoning the wait (not the task) when
// the deadline passes.
func (g *Group[T]) runOne(run uint64, i int, perTask time.Duration) {
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		v := g.task(i)
		g.mu.Lock()
		if g.run == run {
			g.res[i], g.done[i] = v, true
		}
		g.mu.Unlock()
	}()
	if perTask <= 0 {
		<-finished
		return
	}
	timer := time.NewTimer(perTask)
	defer timer.Stop()
	select {
	case <-finished:
	case <-timer.C:
	}
}
