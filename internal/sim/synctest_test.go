//go:build goexperiment.synctest

package sim

import (
	"testing"
	"testing/synctest"
	"time"
)

// TestSynctestDriverOnRealTicker runs StartDriver on its real wallTicks
// ticker inside a synctest bubble, so its wall clock is fake and exact:
// one fake second at speedup 1000 must end at virtual time 1000, not
// near it. The bubble returns only once the loop has stopped its ticker.
// Run with GOEXPERIMENT=synctest go test -run Synctest ./internal/sim/.
func TestSynctestDriverOnRealTicker(t *testing.T) {
	synctest.Run(func() {
		e := NewEngine(1)
		d := StartDriver(e, 1000, 10*time.Millisecond)
		time.Sleep(time.Second)
		synctest.Wait() // the loop takes the tick due at 1 s
		d.Stop()
		if got := e.Now(); got != 1000 {
			t.Errorf("Now() = %v after one fake second at speedup 1000, want exactly 1000", got)
		}
	})
}

// TestSynctestFollowerOnRealTicker runs StartFollower on its real ticker
// in a bubble: at a 100× catch-up bound the clock chases a target 50
// virtual seconds ahead at exactly 100 virtual seconds per fake wall
// second, reaching 25 after 250 fake ms, and then holds at the target.
func TestSynctestFollowerOnRealTicker(t *testing.T) {
	synctest.Run(func() {
		e := NewEngine(1)
		f := StartFollower(e, 100, 10*time.Millisecond)
		f.SetTarget(50)
		time.Sleep(250 * time.Millisecond)
		synctest.Wait()
		if got := e.Now(); got != 25 {
			t.Errorf("Now() = %v after 250 fake ms at rate 100, want exactly 25", got)
		}
		time.Sleep(time.Second)
		synctest.Wait()
		f.Stop()
		if got := e.Now(); got != 50 {
			t.Errorf("Now() = %v a fake second later, want exactly the target 50", got)
		}
	})
}
