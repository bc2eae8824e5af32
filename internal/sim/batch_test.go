package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBatchFIFOAcrossDispatch pins the tentpole invariant: same-tick batch
// dispatch preserves FIFO (schedule) order among equal timestamps, even
// when schedules for the tick arrive interleaved with other timestamps.
func TestBatchFIFOAcrossDispatch(t *testing.T) {
	e := NewEngine(1)
	var got []int
	n := 0
	add := func(at Time) {
		id := n
		n++
		e.At(at, func() { got = append(got, id) })
	}
	// Interleave schedules across three ticks; ticks fire in time order
	// and FIFO must hold within each tick.
	for i := 0; i < 9; i++ {
		add(Time(5 + i%3)) // ids 0..8 across ticks 5,6,7
	}
	e.Run()
	want := []int{0, 3, 6, 1, 4, 7, 2, 5, 8} // tick 5: ids 0,3,6; tick 6: 1,4,7; tick 7: 2,5,8
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", got, want)
		}
	}
}

// TestCancelWithinCurrentBatch: an earlier event of the tick cancels a
// later one that has already been drained into the batch — it must not
// fire, and the cancel must not leave a stale tombstone behind.
func TestCancelWithinCurrentBatch(t *testing.T) {
	e := NewEngine(1)
	var got []string
	var hC Handle
	e.At(5, func() {
		got = append(got, "A")
		hC.Cancel() // C is in the current batch, not yet fired
	})
	e.At(5, func() { got = append(got, "B") })
	hC = e.At(5, func() { got = append(got, "C") })
	e.At(5, func() { got = append(got, "D") })
	e.Run()
	want := "A,B,D"
	joined := ""
	for i, s := range got {
		if i > 0 {
			joined += ","
		}
		joined += s
	}
	if joined != want {
		t.Fatalf("fired %q, want %q", joined, want)
	}
	if e.Fired() != 3 {
		t.Fatalf("Fired = %d, want 3", e.Fired())
	}
	// No stale tombstone: the cancel landed in the batch, not the queue.
	if e.dead != 0 {
		t.Fatalf("tombstone counter = %d, want 0", e.dead)
	}
	// And scheduling/draining afterwards stays exact.
	e.After(1, func() {})
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
}

// TestCancelSelfWithinBatch: a batch event cancelling itself mid-flight is
// the fired-event no-op.
func TestCancelSelfWithinBatch(t *testing.T) {
	e := NewEngine(1)
	var h Handle
	ran := false
	h = e.At(5, func() {
		ran = true
		h.Cancel()
	})
	e.At(5, func() {})
	e.Run()
	if !ran {
		t.Fatal("self-cancelling event did not run")
	}
	if e.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", e.Fired())
	}
}

// TestPendingDuringBatchAndCompaction: Pending must count the unfired
// remainder of the current batch, stay exact while a mid-batch cancel
// storm triggers heap compaction, and exclude batch entries cancelled
// before they fire.
func TestPendingDuringBatchAndCompaction(t *testing.T) {
	e := NewEngine(1)
	const future = 1000
	// A far-future population large enough to cross the compaction
	// threshold (>64 tombstones, over a quarter of the queue).
	futures := make([]Handle, future)
	for i := range futures {
		futures[i] = e.After(1e6+Duration(i), func() {})
	}
	var inBatch, afterCancels, afterBatchCancel int
	var hLast Handle
	e.At(5, func() {
		// Three batch events follow this one (one of which we cancel), plus
		// the far-future population.
		inBatch = e.Pending()
		for _, h := range futures {
			h.Cancel() // triggers compaction mid-batch
		}
		afterCancels = e.Pending()
		hLast.Cancel() // cancel a not-yet-fired member of this batch
		afterBatchCancel = e.Pending()
	})
	e.At(5, func() {})
	e.At(5, func() {})
	hLast = e.At(5, func() { t.Fatal("cancelled batch event fired") })
	e.RunUntil(10)
	if inBatch != future+3 {
		t.Fatalf("Pending inside batch = %d, want %d", inBatch, future+3)
	}
	if afterCancels != 3 {
		t.Fatalf("Pending after compaction = %d, want 3", afterCancels)
	}
	if afterBatchCancel != 2 {
		t.Fatalf("Pending after in-batch cancel = %d, want 2", afterBatchCancel)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending after run = %d, want 0", e.Pending())
	}
	if e.Fired() != 3 {
		t.Fatalf("Fired = %d, want 3", e.Fired())
	}
}

// TestHaltMidBatchRequeues: Halt inside a batch stops dispatch after the
// current callback; the unfired remainder must survive (requeued, FIFO
// preserved) and fire on resume.
func TestHaltMidBatchRequeues(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 6; i++ {
		id := i
		e.At(5, func() {
			got = append(got, id)
			if id == 2 {
				e.Halt()
			}
		})
	}
	e.Run()
	if len(got) != 3 {
		t.Fatalf("fired %d events before halt, want 3", len(got))
	}
	if e.Pending() != 3 {
		t.Fatalf("Pending while halted = %d, want 3 requeued", e.Pending())
	}
	if e.Now() != 5 {
		t.Fatalf("clock = %v at halt, want 5", e.Now())
	}
	// A requeued event must still be cancellable through the normal path.
	e.Run()
	want := []int{0, 1, 2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order across halt = %v, want %v", got, want)
		}
	}
}

// TestBatchRescheduleSameTime: a batch callback scheduling a new event at
// the current timestamp lands it in a later batch of the same tick — it
// still fires at that time, after the current batch completes.
func TestBatchRescheduleSameTime(t *testing.T) {
	e := NewEngine(1)
	var got []string
	e.At(5, func() {
		got = append(got, "A")
		e.After(0, func() { got = append(got, "A2") })
	})
	e.At(5, func() { got = append(got, "B") })
	e.Run()
	want := []string{"A", "B", "A2"}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 5 {
		t.Fatalf("clock = %v, want 5", e.Now())
	}
}

// TestSharedCancelRacesBatch drives a shared engine with synchronized
// ticks from one goroutine while others concurrently cancel handles from
// the live tick and, on later passes, handles of ticks that already fired.
// Every firing schedules a follow-up that nobody holds a handle to, so the
// free list keeps handing the fired events' slots to new events while the
// stale handles are cancelled. Run under -race this pins the batch CAS
// protocol and the seq test: every event either fires exactly once or is
// cancelled, never both, no stale Cancel reaches a follow-up, and the
// engine counters stay consistent.
func TestSharedCancelRacesBatch(t *testing.T) {
	e := NewEngine(1)
	e.Share()

	var mu sync.Mutex
	firedBy := make(map[int]bool)
	followUps, followUpsFired := 0, 0

	const ticks = 50
	const perTick = 40
	handles := make([]Handle, 0, ticks*perTick)
	id := 0
	for tk := 1; tk <= ticks; tk++ {
		for j := 0; j < perTick; j++ {
			ev := id
			id++
			handles = append(handles, e.At(Time(tk), func() {
				mu.Lock()
				defer mu.Unlock()
				if firedBy[ev] {
					t.Errorf("event %d fired twice", ev)
					return
				}
				firedBy[ev] = true
				followUps++
				e.After(0.5, func() {
					mu.Lock()
					followUpsFired++
					mu.Unlock()
				})
			}))
		}
	}

	var wg sync.WaitGroup
	var passes atomic.Int64
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; ; pass, _ = pass+1, passes.Add(1) {
				for i := w; i < len(handles); i += 4 {
					select {
					case <-stop:
						return
					default:
					}
					// The first pass cancels a third of the events; later
					// passes cancel every handle again, most of them of
					// events long fired whose slots now carry follow-ups.
					if pass > 0 || i%3 == 0 {
						handles[i].Cancel()
					}
					if i%16 == 0 {
						e.Pending() // exercise the batch-aware counter concurrently
					}
				}
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		// A tick at a time, and between ticks the cancellers sweep every
		// handle once more, so stale cancels meet freshly recycled slots.
		for tk := 1; tk <= ticks+1; tk++ {
			e.RunUntil(Time(tk))
			for want := passes.Load() + 4; passes.Load() < want; {
				runtime.Gosched()
			}
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("shared run did not finish")
	}
	close(stop)
	wg.Wait()

	mu.Lock()
	fired, scheduled, followed := len(firedBy), followUps, followUpsFired
	mu.Unlock()
	if followed != scheduled {
		t.Fatalf("%d of %d follow-ups fired: a stale Cancel reached a recycled slot", followed, scheduled)
	}
	if uint64(fired+followed) != e.Fired() {
		t.Fatalf("callbacks ran %d times but Fired() = %d", fired+followed, e.Fired())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending after run = %d, want 0", e.Pending())
	}
	// A Cancel landing after the batch claimed the event is the documented
	// no-op; what must never happen is a fire after a cancel that won
	// (checked by the fire-twice guard plus the counter equality above).
}

// TestStaleHandleSparesRecycledSlot: once an event has fired or been
// cancelled its slot goes back to the free list and the next At takes it.
// Cancelling through the old Handle must fail the seq test and leave the
// new event alone, unshared and shared.
func TestStaleHandleSparesRecycledSlot(t *testing.T) {
	for _, shared := range []bool{false, true} {
		e := NewEngine(1)
		if shared {
			e.Share()
		}
		fired := e.After(1, func() {})
		e.Run()
		cancelled := e.After(1, func() { t.Error("cancelled event fired") })
		if cancelled.s != fired.s {
			t.Fatalf("shared=%v: the fired event's slot was not recycled", shared)
		}
		cancelled.Cancel()
		ran := 0
		h := e.After(1, func() { ran++ })
		if h.s != cancelled.s {
			t.Fatalf("shared=%v: the cancelled event's slot was not recycled", shared)
		}
		fired.Cancel()
		cancelled.Cancel()
		if got := e.Pending(); got != 1 {
			t.Fatalf("shared=%v: Pending = %d after stale cancels, want 1", shared, got)
		}
		e.Run()
		if ran != 1 || e.Fired() != 2 {
			t.Fatalf("shared=%v: recycled event ran %d times, Fired = %d; want 1 and 2", shared, ran, e.Fired())
		}
	}
}
