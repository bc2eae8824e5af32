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
