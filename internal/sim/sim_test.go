package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(3, func() { got = append(got, 3) })
	e.At(1, func() { got = append(got, 1) })
	e.At(2, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want 3", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineAfterAccumulates(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	e.After(1, func() {
		times = append(times, e.Now())
		e.After(2, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("times = %v, want [1 3]", times)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling into the past")
		}
	}()
	e := NewEngine(1)
	e.After(10, func() { e.At(5, func() {}) })
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	NewEngine(1).After(-1, func() {})
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	h := e.After(1, func() { fired = true })
	h.Cancel()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending = %d after Cancel, want 0", got)
	}
	h.Cancel() // a second Cancel is a no-op
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Fired() != 0 || e.Pending() != 0 {
		t.Fatalf("after run: fired=%d pending=%d, want 0 and 0", e.Fired(), e.Pending())
	}
}

// TestCancelAfterFireIsNoop: cancelling an event that has already fired
// changes nothing, and Pending still counts what else is queued — the
// boot timer Terminate cancels after the VM came up.
func TestCancelAfterFireIsNoop(t *testing.T) {
	e := NewEngine(1)
	h := e.After(1, func() {})
	e.After(5, func() {})
	e.RunUntil(2)
	h.Cancel()
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending = %d after cancelling a fired event, want 1", got)
	}
	e.Run()
	if e.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", e.Fired())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %d events by t=3, want 3", len(fired))
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want 3", e.Now())
	}
	e.Run()
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("clock = %v, want 100 with empty queue", e.Now())
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	n := 0
	tk := e.Every(10, func() {
		n++
		if n == 5 {
			e.Halt()
		}
	})
	e.Run()
	tk.Stop()
	if n != 5 {
		t.Fatalf("ticks = %d, want 5", n)
	}
	if e.Now() != 50 {
		t.Fatalf("clock = %v, want 50", e.Now())
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var tk *Ticker
	tk = e.Every(1, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	e.RunUntil(10)
	if n != 3 {
		t.Fatalf("ticks after Stop = %d, want 3", n)
	}
}

func TestHalt(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.At(1, func() { ran++; e.Halt() })
	e.At(2, func() { ran++ })
	e.Run()
	if ran != 1 {
		t.Fatalf("ran %d events, want 1 (halted)", ran)
	}
	// Run again resumes.
	e.Run()
	if ran != 2 {
		t.Fatalf("ran %d events after resume, want 2", ran)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	runTrace := func(seed uint64) []float64 {
		e := NewEngine(seed)
		var trace []float64
		var step func()
		step = func() {
			trace = append(trace, float64(e.Now()))
			if len(trace) < 100 {
				e.After(e.RNG().Exp(1.0), step)
			}
		}
		e.After(0, step)
		e.Run()
		return trace
	}
	a, b := runTrace(42), runTrace(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := runTrace(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{Time(0.5), "0.500s"},
		{Time(90), "1.50m"},
		{Time(7200), "2.00h"},
		{Time(2 * Day), "2.00d"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%v).String() = %q, want %q", float64(c.t), got, c.want)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint16) bool {
		nn := int(n%1000) + 1
		r := NewRNG(seed)
		v := r.Intn(nn)
		return v >= 0 && v < nn
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(3.0)
	}
	mean := sum / n
	if math.Abs(mean-3.0) > 0.05 {
		t.Fatalf("Exp mean = %v, want ~3.0", mean)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("Normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("Normal stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestRNGParetoTail(t *testing.T) {
	r := NewRNG(17)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(2.0, 1.5)
		if v < 2.0 {
			t.Fatalf("Pareto(2,1.5) = %v below scale", v)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		p := r.Perm(50)
		seen := make([]bool, 50)
		for _, v := range p {
			if v < 0 || v >= 50 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGBernoulliEdges(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	a := NewRNG(5)
	b := a.Fork()
	// Drawing from b must not change a's future relative to a clone.
	c := NewRNG(5)
	c.Uint64() // same draw Fork consumed
	for i := 0; i < 10; i++ {
		b.Uint64()
	}
	for i := 0; i < 100; i++ {
		if a.Uint64() != c.Uint64() {
			t.Fatal("Fork perturbed parent stream")
		}
	}
}

// TestCancelReclaimsQueueSlots is the regression test for the
// cancelled-event leak: with the old pointer heap, cancelled events stayed
// queued (closures and all) until their timestamp was reached. Now
// cancelling must shrink the live count immediately and the physical queue
// via compaction, without advancing the clock at all.
func TestCancelReclaimsQueueSlots(t *testing.T) {
	const n = 100000
	e := NewEngine(1)
	// One far-future survivor so the queue never fully drains.
	e.At(1e9, func() {})
	handles := make([]Handle, n)
	for i := range handles {
		handles[i] = e.After(1e6+Duration(i), func() {})
	}
	if got := e.Pending(); got != n+1 {
		t.Fatalf("Pending = %d before cancels, want %d", got, n+1)
	}
	for _, h := range handles {
		h.Cancel()
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending = %d after cancelling %d events, want 1", got, n)
	}
	// Compaction must have physically reclaimed the slots — without waiting
	// for the cancelled timestamps — so the backing heap is back to O(live)
	// plus the ≤64-tombstone slack below the compaction floor.
	if got := len(e.queue); got > 80 {
		t.Fatalf("heap holds %d entries after mass cancel, want ≤ 80", got)
	}
	if got := cap(e.queue); got > 2048 {
		t.Fatalf("heap capacity %d after mass cancel, want shrunk", got)
	}
	if got := len(e.free); got > 1024 {
		t.Fatalf("free list holds %d slots after mass cancel, want them dropped", got)
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved to %v during cancellation", e.Now())
	}
	// The survivor still fires.
	e.Run()
	if e.Fired() != 1 || e.Now() != 1e9 {
		t.Fatalf("after run: fired=%d now=%v, want 1 event at t=1e9", e.Fired(), e.Now())
	}
}

// TestCancelEverythingCompactsToEmpty: when every queued event is a
// tombstone at the moment compaction triggers (an idle shard whose only
// timers were the boots of VMs launched and terminated one after another)
// the heap compacts down to nothing; that used to sift slot 0 of the empty
// queue and panic.
func TestCancelEverythingCompactsToEmpty(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 200; i++ {
		h := e.After(90, func() { t.Error("cancelled event fired") })
		h.Cancel()
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending = %d after cancelling everything, want 0", got)
	}
	fired := false
	e.After(1, func() { fired = true })
	e.Run()
	if !fired || e.Fired() != 1 {
		t.Fatalf("engine unusable after compacting to empty: fired=%v count=%d", fired, e.Fired())
	}
}

// TestCancelInterleavedWithPops checks ordering stays correct when cancels,
// schedules, and pops interleave heavily (the compaction path reheapifies).
func TestCancelInterleavedWithPops(t *testing.T) {
	e := NewEngine(3)
	rng := NewRNG(9)
	var fired []Time
	var handles []Handle
	for i := 0; i < 5000; i++ {
		at := Time(rng.Float64() * 1000)
		handles = append(handles, e.At(at, func() { fired = append(fired, at) }))
	}
	for i, h := range handles {
		if i%3 != 0 {
			h.Cancel()
		}
	}
	e.Run()
	if len(fired) == 0 {
		t.Fatal("no events fired")
	}
	want := (5000 + 2) / 3
	if len(fired) != want {
		t.Fatalf("fired %d events, want %d survivors", len(fired), want)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("events fired out of order at %d: %v after %v", i, fired[i], fired[i-1])
		}
	}
}

func TestPendingAndFiredCounters(t *testing.T) {
	e := NewEngine(1)
	e.After(1, func() {})
	e.After(2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if e.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", e.Fired())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending after run = %d, want 0", e.Pending())
	}
}
