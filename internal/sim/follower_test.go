package sim

import (
	"sync"
	"testing"
	"time"
)

// waitFor polls until cond holds or the wall deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFollowerTracksTargets: the follower advances exactly to each
// published target and never past it.
func TestFollowerTracksTargets(t *testing.T) {
	e := NewEngine(11)
	var mu sync.Mutex
	ticks := 0
	e.Every(Minute, func() { mu.Lock(); ticks++; mu.Unlock() })

	f := StartFollower(e, 0, time.Millisecond)
	defer f.Stop()

	f.SetTarget(Time(5 * Minute))
	waitFor(t, 5*time.Second, func() bool { return e.Now() >= Time(5*Minute) },
		"follower never reached the first target")
	if now := e.Now(); now != Time(5*Minute) {
		t.Fatalf("follower overshot the target: %v", now)
	}
	// The clock holds still with no fresh target.
	time.Sleep(10 * time.Millisecond)
	if now := e.Now(); now != Time(5*Minute) {
		t.Fatalf("clock moved without a new target: %v", now)
	}
	mu.Lock()
	got := ticks
	mu.Unlock()
	if got != 5 {
		t.Fatalf("minute ticker fired %d times by %v, want 5", got, e.Now())
	}

	f.SetTarget(Time(7 * Minute))
	waitFor(t, 5*time.Second, func() bool { return e.Now() >= Time(7*Minute) },
		"follower never reached the second target")
	if now := e.Now(); now != Time(7*Minute) {
		t.Fatalf("follower overshot the second target: %v", now)
	}
}

// TestFollowerIgnoresStaleTargets: published targets behind the clock are
// dropped — virtual time never runs backwards.
func TestFollowerIgnoresStaleTargets(t *testing.T) {
	e := NewEngine(12)
	f := StartFollower(e, 0, time.Millisecond)
	defer f.Stop()

	f.SetTarget(100)
	waitFor(t, 5*time.Second, func() bool { return e.Now() >= 100 },
		"follower never reached 100")
	f.SetTarget(40) // stale
	time.Sleep(10 * time.Millisecond)
	if now := e.Now(); now != 100 {
		t.Fatalf("stale target moved the clock: %v", now)
	}
	if f.Target() != 100 {
		t.Fatalf("stale target replaced the newest one: %v", f.Target())
	}
}

// TestFollowerCatchUpRateCap: with a max catch-up rate the follower closes a
// large lag gradually instead of jumping.
func TestFollowerCatchUpRateCap(t *testing.T) {
	e := NewEngine(13)
	// 1000 virtual seconds per wall second: a 10 000 s lag takes ~10 s to
	// close, so shortly after the target lands the clock must still be far
	// from it.
	f := StartFollower(e, 1000, time.Millisecond)
	defer f.Stop()

	f.SetTarget(10_000)
	time.Sleep(50 * time.Millisecond)
	if now := e.Now(); now == 0 || now >= 10_000 {
		t.Fatalf("rate-capped follower at %v after 50 ms; want 0 < now < 10000", now)
	}
	if f.Target()-e.Now() <= 0 {
		t.Fatal("lag reported zero while still catching up")
	}
}

// TestFollowerStopHaltsAdvance mirrors the Driver contract: after Stop the
// clock no longer moves even with a pending target.
func TestFollowerStopHaltsAdvance(t *testing.T) {
	e := NewEngine(14)
	f := StartFollower(e, 0, time.Millisecond)
	f.SetTarget(50)
	waitFor(t, 5*time.Second, func() bool { return e.Now() >= 50 }, "never reached 50")
	f.Stop()
	f.SetTarget(500)
	at := e.Now()
	time.Sleep(20 * time.Millisecond)
	if e.Now() != at {
		t.Fatalf("clock moved after Stop: %v -> %v", at, e.Now())
	}
}

// TestClockSourceInterface pins that both drivers satisfy ClockSource.
func TestClockSourceInterface(t *testing.T) {
	e1, e2 := NewEngine(1), NewEngine(2)
	var sources []ClockSource
	sources = append(sources, StartDriver(e1, 1000, time.Millisecond))
	sources = append(sources, StartFollower(e2, 0, time.Millisecond))
	for i, s := range sources {
		if s.Engine() == nil {
			t.Fatalf("source %d has no engine", i)
		}
		s.Stop()
		s.Stop() // idempotent
	}
}
