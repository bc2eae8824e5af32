package sim

import (
	"sync"
	"testing"
	"time"
)

// TestRandSurfaceSharedMode hammers the locked RNG surface from several
// goroutines while a Driver advances the engine and callbacks draw too.
// Run under -race this is the test that would have caught the old pattern
// of HTTP handlers calling e.RNG().Float64() directly against a live
// clock driver — the raw RNG has no lock, the Rand* surface does.
func TestRandSurfaceSharedMode(t *testing.T) {
	e := NewEngine(42)
	tk := e.Every(0.001, func() {
		// Clock-goroutine callbacks share the same stream safely.
		_ = e.RandFloat64()
	})
	d := StartDriver(e, 1000, time.Millisecond)
	defer func() {
		d.Stop()
		tk.Stop()
	}()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if f := e.RandFloat64(); f < 0 || f >= 1 {
					t.Errorf("RandFloat64 = %v out of range", f)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRandSurfaceDeterministicWhenSerial: with a single caller the locked
// surface draws the same stream as the raw RNG would.
func TestRandSurfaceDeterministicWhenSerial(t *testing.T) {
	a, b := NewEngine(7), NewEngine(7)
	for i := 0; i < 100; i++ {
		if a.RandFloat64() != b.RNG().Float64() {
			t.Fatal("locked surface diverged from raw RNG stream")
		}
	}
}
