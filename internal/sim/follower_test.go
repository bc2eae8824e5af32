package sim

import (
	"testing"
	"time"
)

// TestFollowerTracksTargets: the follower advances exactly to each
// published target and never past it.
func TestFollowerTracksTargets(t *testing.T) {
	e := NewEngine(11)
	ticks := 0
	e.Every(Minute, func() { ticks++ })

	h := newHandTicks(t)
	f := newFollower(e, 0, h.feed())
	defer f.Stop()

	f.SetTarget(Time(5 * Minute))
	h.tick(time.Millisecond)
	if now := e.Now(); now != Time(5*Minute) {
		t.Fatalf("follower at %v after one tick, want the target %v", now, Time(5*Minute))
	}
	// The clock holds still with no fresh target.
	h.tick(time.Millisecond)
	if now := e.Now(); now != Time(5*Minute) {
		t.Fatalf("clock moved without a new target: %v", now)
	}
	if ticks != 5 {
		t.Fatalf("minute ticker fired %d times by %v, want 5", ticks, e.Now())
	}

	f.SetTarget(Time(7 * Minute))
	h.tick(time.Millisecond)
	if now := e.Now(); now != Time(7*Minute) {
		t.Fatalf("follower at %v after one tick, want the second target %v", now, Time(7*Minute))
	}
}

// TestFollowerIgnoresStaleTargets: published targets behind the clock are
// dropped — virtual time never runs backwards.
func TestFollowerIgnoresStaleTargets(t *testing.T) {
	e := NewEngine(12)
	h := newHandTicks(t)
	f := newFollower(e, 0, h.feed())
	defer f.Stop()

	f.SetTarget(100)
	h.tick(time.Millisecond)
	f.SetTarget(40) // stale
	h.tick(time.Millisecond)
	if now := e.Now(); now != 100 {
		t.Fatalf("clock at %v after a stale target, want 100", now)
	}
	if f.Target() != 100 {
		t.Fatalf("stale target replaced the newest one: %v", f.Target())
	}
}

// TestFollowerCatchUpRateCap: with a max catch-up rate the follower closes a
// large lag gradually instead of jumping.
func TestFollowerCatchUpRateCap(t *testing.T) {
	e := NewEngine(13)
	// 1000 virtual seconds per wall second: a 10 000 s lag takes 10 wall
	// seconds to close.
	h := newHandTicks(t)
	f := newFollower(e, 1000, h.feed())
	defer f.Stop()

	f.SetTarget(10_000)
	for i := 1; i <= 10; i++ {
		h.tick(time.Second)
		if now := e.Now(); now != Time(i*1000) {
			t.Fatalf("rate-capped follower at %v after %d s, want %d", now, i, i*1000)
		}
	}
	h.tick(time.Second)
	if now := e.Now(); now != 10_000 {
		t.Fatalf("follower ran past its target to %v", now)
	}
}

// TestFollowerStopHaltsAdvance mirrors the Driver contract: after Stop the
// clock no longer moves even with a pending target.
func TestFollowerStopHaltsAdvance(t *testing.T) {
	e := NewEngine(14)
	h := newHandTicks(t)
	f := newFollower(e, 0, h.feed())
	f.SetTarget(50)
	h.tick(time.Millisecond)
	f.Stop()
	f.SetTarget(500)
	if h.taken() {
		t.Fatal("follower took a tick after Stop")
	}
	if now := e.Now(); now != 50 {
		t.Fatalf("clock at %v after Stop, want 50", now)
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
