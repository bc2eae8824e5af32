package sim

import (
	"sync"
	"testing"
	"time"
)

// TestSharedEngineConcurrentScheduling pins the shared-mode contract: many
// goroutines scheduling and cancelling against an engine while one
// goroutine drives the clock. Run with -race.
func TestSharedEngineConcurrentScheduling(t *testing.T) {
	e := NewEngine(1)
	e.Share()

	var fired sync.Map
	var wg sync.WaitGroup
	stop, driven := make(chan struct{}), make(chan struct{})
	go func() { // the clock driver
		defer close(driven)
		for {
			select {
			case <-stop:
				return
			default:
				e.RunFor(10)
			}
		}
	}()
	const writers, perWriter = 8, 200
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := w*perWriter + i
				h := e.After(Duration(i%7), func() { fired.Store(key, true) })
				if i%5 == 0 {
					h.Cancel()
				}
				_ = e.Now()
				_ = e.Pending()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-driven

	e.Run() // drain whatever is left, single-threaded again
	kept := 0
	fired.Range(func(_, _ any) bool { kept++; return true })
	// 1 in 5 events per writer was cancelled before it could fire; at least
	// the rest must have fired.
	if min := writers * perWriter * 4 / 5; kept < min {
		t.Fatalf("fired %d events, want >= %d", kept, min)
	}
}

// TestSharedModeMatchesUnsharedTrace: enabling the lock must not change
// single-threaded semantics.
func TestSharedModeMatchesUnsharedTrace(t *testing.T) {
	run := func(shared bool) []Time {
		e := NewEngine(9)
		if shared {
			e.Share()
		}
		var trace []Time
		tick := e.Every(3, func() { trace = append(trace, e.Now()) })
		e.After(10, func() { tick.Stop() })
		e.Run()
		return trace
	}
	a, b := run(false), run(true)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("traces differ in length: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a, b)
		}
	}
}

// handTicks feeds a clock source by hand, from a fixed wall epoch.
type handTicks struct {
	t   *testing.T
	c   chan time.Time
	now time.Time
}

func newHandTicks(t *testing.T) *handTicks {
	return &handTicks{t: t, c: make(chan time.Time), now: time.Unix(1_000_000, 0)}
}

// tick moves the wall clock the source sees forward by d and returns once
// the source has acted on it: the time is sent twice, and the loop takes
// the repeat, which runs nothing, only after the first tick's run is done.
func (h *handTicks) tick(d time.Duration) {
	h.t.Helper()
	h.now = h.now.Add(d)
	for i := 0; i < 2; i++ {
		select {
		case h.c <- h.now:
		case <-time.After(5 * time.Second):
			h.t.Fatal("clock source stopped taking ticks")
		}
	}
}

func (h *handTicks) feed() tickFeed { return tickFeed{from: h.now, c: h.c} }

// taken reports whether a loop still takes ticks. Ask it only after Stop.
func (h *handTicks) taken() bool {
	select {
	case h.c <- h.now.Add(time.Hour):
		return true
	default:
		return false
	}
}

func TestDriverAdvancesClock(t *testing.T) {
	e := NewEngine(3)
	ticks := 0
	e.Every(Minute, func() { ticks++ })

	// 1 wall second = 1 simulated minute.
	h := newHandTicks(t)
	d := newDriver(e, 60, h.feed())
	defer d.Stop()
	for i := 1; i <= 10; i++ {
		h.tick(time.Second)
		if now := e.Now(); now != Time(Duration(i)*Minute) {
			t.Fatalf("after %d wall seconds the clock is at %v, want %v", i, now, Time(Duration(i)*Minute))
		}
	}
	if ticks != 10 {
		t.Fatalf("minute ticker fired %d times by %v, want 10", ticks, e.Now())
	}
	h.tick(0) // a tick that is not after the last runs nothing
	if now := e.Now(); now != Time(10*Minute) {
		t.Fatalf("a repeated tick moved the clock to %v", now)
	}
}

func TestDriverStopHaltsAdvance(t *testing.T) {
	e := NewEngine(4)
	h := newHandTicks(t)
	d := newDriver(e, 1000, h.feed())
	h.tick(250 * time.Millisecond)
	if now := e.Now(); now != 250 {
		t.Fatalf("clock at %v after a quarter second at 1000x, want 250", now)
	}
	d.Stop()
	if h.taken() {
		t.Fatal("driver took a tick after Stop")
	}
	if now := e.Now(); now != 250 {
		t.Fatalf("clock moved after Stop: 250 -> %v", now)
	}
}
