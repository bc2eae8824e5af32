package sim

import (
	"testing"
	"unsafe"
)

// TestEventStays24Bytes: a run head is marked by a nil callback and finds
// its members through a map, so coalescing adds no word to the heap entry
// every sift copies.
func TestEventStays24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 24 {
		t.Fatalf("heap entry is %d bytes, want 24", got)
	}
}

// TestNilCallbackPanics: a nil callback fails where it is scheduled, not
// at whatever virtual time the run loop would have called it.
func TestNilCallbackPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if r := recover(); r != "sim: nil callback" {
			t.Fatalf("At(t, nil) recovered %v, want the nil-callback panic", r)
		}
		if e.Pending() != 0 {
			t.Fatalf("Pending = %d after the rejected schedule, want 0", e.Pending())
		}
	}()
	e.At(5, nil)
}

// rearmPopulation arms width pooled timers for instant 1, each re-arming
// itself one second ahead from its own callback — the aligned heartbeat.
// Every arm is followed by a one-off event for instant 0.5, the way a
// population's set-up interleaves phases, so no two consecutive schedules
// share an instant and the first tick finds width separate heap entries.
// outOfOrder counts firings that were not in creation order.
func rearmPopulation(e *Engine, width int) (outOfOrder *int) {
	outOfOrder = new(int)
	next := 0
	for i := 0; i < width; i++ {
		id := i
		var tm *Timer
		tm = NewTimer(e, func() {
			if id != next {
				*outOfOrder++
			}
			next = (next + 1) % width
			tm.Reset(1)
		})
		tm.ResetAt(1)
		e.At(0.5, func() {})
	}
	return outOfOrder
}

// TestRearmTickCoalesces: timers that re-arm back to back for one instant
// ride the heap as a single entry, still count one each in Pending, fire in
// schedule order, and cost no allocation per tick once warm.
func TestRearmTickCoalesces(t *testing.T) {
	const width = 4096
	e := NewEngine(1)
	outOfOrder := rearmPopulation(e, width)
	if got := len(e.queue); got != 2*width {
		t.Fatalf("set-up left %d heap entries, want %d (nothing there is back to back)", got, 2*width)
	}
	e.RunUntil(1) // the spacers, then the first tick
	if got := len(e.queue); got != 1 {
		t.Fatalf("%d heap entries after the first tick, want the %d re-arms in 1", got, width)
	}
	if got := e.Pending(); got != width {
		t.Fatalf("Pending = %d after the first tick, want %d", got, width)
	}
	e.RunUntil(2)
	if got := e.Fired(); got != 3*width {
		t.Fatalf("Fired = %d after two ticks, want %d", got, 3*width)
	}
	tick := Time(2)
	allocs := testing.AllocsPerRun(20, func() {
		tick++
		e.RunUntil(tick)
	})
	if allocs != 0 {
		t.Fatalf("a steady-state tick allocates %v times, want 0", allocs)
	}
	if *outOfOrder != 0 {
		t.Fatalf("%d firings out of creation order", *outOfOrder)
	}
	if len(e.queue) != 1 || e.Pending() != width {
		t.Fatalf("steady state: %d heap entries, Pending %d; want 1 and %d", len(e.queue), e.Pending(), width)
	}
}

// TestDrainReleasesHeapCapacity: once a population has re-armed into runs
// the heap that held one entry per timer is nearly empty, and the drain
// path gives its backing array back rather than keeping it for good.
func TestDrainReleasesHeapCapacity(t *testing.T) {
	const width = 4096
	e := NewEngine(1)
	rearmPopulation(e, width)
	if got := cap(e.queue); got < 2*width {
		t.Fatalf("heap capacity %d after set-up, want at least %d", got, 2*width)
	}
	e.RunUntil(1)
	if got := cap(e.queue); got > 1024 {
		t.Fatalf("heap capacity %d after the first tick left %d entries, want shrunk", got, len(e.queue))
	}
}

// TestAfterAllocsNothing: scheduling and firing a prebuilt callback through
// After allocates nothing — what a caller of After pays for is the closure
// it builds, not the kernel.
func TestAfterAllocsNothing(t *testing.T) {
	e := NewEngine(1)
	fire := func() {}
	e.After(1, fire)
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(1, fire)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("After + fire allocates %v times per event, want 0", allocs)
	}
}

// TestCancelStormWithinBatch: a terminate storm landing on a wide tick —
// every even event of the batch cancels its odd neighbour and one timeout
// far in the future — looks each victim up in O(log width), hit or miss,
// instead of scanning the batch. The cost is read from the engine's own
// count of batch entries examined, not from a clock.
func TestCancelStormWithinBatch(t *testing.T) {
	const width = 100000
	e := NewEngine(1)
	neighbours := make([]Handle, width)
	timeouts := make([]Handle, width/2)
	for i := range timeouts {
		timeouts[i] = e.At(1e6, func() { t.Error("cancelled timeout fired") })
	}
	for i := range neighbours {
		i := i
		fire := func() { t.Error("cancelled neighbour fired") }
		if i%2 == 0 {
			fire = func() {
				neighbours[i+1].Cancel() // in the batch
				timeouts[i/2].Cancel()   // not in the batch
			}
		}
		neighbours[i] = e.At(1, fire)
	}
	e.RunUntil(2)
	if got := e.Fired(); got != width/2 {
		t.Fatalf("Fired = %d, want %d", got, width/2)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending = %d after the storm, want 0", got)
	}
	// width cancels, each a binary search over at most width entries:
	// ⌈log2 100000⌉ = 17 probes.
	if bound := width * 17; e.batchProbes > bound {
		t.Fatalf("the storm examined %d batch entries, want at most %d (a scan would be %d)", e.batchProbes, bound, width/2*width)
	}
}
