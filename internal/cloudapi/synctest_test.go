//go:build goexperiment.synctest

package cloudapi

import (
	"maps"
	"slices"
	"sync"
	"testing"
	"testing/synctest"
	"time"
)

// scriptedCloud is an in-process CloudAPI whose usage plane answers
// whatever delta the test scripted, blocking first while hang is open.
// It records the revision every call passed.
type scriptedCloud struct {
	CloudAPI
	name string

	mu     sync.Mutex
	reply  UsageDelta
	hang   chan struct{}
	sinces []int64
}

func (c *scriptedCloud) Name() string { return c.name }

func (c *scriptedCloud) UsageSince(since int64) (UsageDelta, error) {
	c.mu.Lock()
	c.sinces = append(c.sinces, since)
	reply, hang := c.reply, c.hang
	c.mu.Unlock()
	if hang != nil {
		<-hang
	}
	return reply, nil
}

func (c *scriptedCloud) script(d UsageDelta, hang chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reply, c.hang = d, hang
}

// TestSynctestUsagePollerRoundsAndReset runs UsagePoller's rounds on a
// fake wall clock. A hung cloud is abandoned at exactly the deadline, its
// answer, once released, lands nowhere, and its snapshot's rev stays put,
// so the next round asks from the same revision. A Reset delta (the cloud
// restarted under the poller) then replaces the snapshot whole.
// Run with GOEXPERIMENT=synctest go test -run Synctest ./internal/cloudapi/.
// The bubble runs on its own goroutine, so failures are t.Error.
func TestSynctestUsagePollerRoundsAndReset(t *testing.T) {
	synctest.Run(func() {
		const deadline = 50 * time.Millisecond
		a := &scriptedCloud{name: "a"}
		b := &scriptedCloud{name: "b"}
		p := NewUsagePoller([]CloudAPI{a, b})
		users := func(u *Usage) map[string]UserUsage {
			if u == nil {
				return nil
			}
			return u.ByUser
		}

		// Round 1: both answer full snapshots at once.
		a.script(UsageDelta{Rev: 3, Reset: true, Changed: map[string]UserUsage{"alice": {1, 4}}}, nil)
		b.script(UsageDelta{Rev: 7, Reset: true, Changed: map[string]UserUsage{"bob": {2, 8}}}, nil)
		start := time.Now()
		snaps := p.Poll(deadline)
		if took := time.Since(start); took != 0 {
			t.Errorf("round 1 took %v of fake time, want 0", took)
		}
		if snaps[0] == nil || snaps[1] == nil || snaps[0].Rev != 3 || snaps[1].Rev != 7 {
			t.Errorf("round 1 = %v, want revs 3 and 7", snaps)
			return
		}

		// Round 2: a sends a delta, b hangs.
		hang := make(chan struct{})
		a.script(UsageDelta{Rev: 4, Changed: map[string]UserUsage{"amy": {1, 1}}}, nil)
		b.script(UsageDelta{Rev: 9, Changed: map[string]UserUsage{"bob": {9, 9}}}, hang)
		start = time.Now()
		snaps = p.Poll(deadline)
		if took := time.Since(start); took != deadline {
			t.Errorf("round 2 took %v of fake time, want exactly the %v deadline", took, deadline)
		}
		if want := map[string]UserUsage{"alice": {1, 4}, "amy": {1, 1}}; !maps.Equal(users(snaps[0]), want) {
			t.Errorf("a after its delta = %v, want %v", users(snaps[0]), want)
		}
		if snaps[1] != nil {
			t.Errorf("hung b reported %+v, want nil", *snaps[1])
		}
		if got := p.ErrorsByCloud(); got["a"] != 0 || got["b"] != 1 {
			t.Errorf("errors %v, want a 0, b 1", got)
		}
		close(hang)
		synctest.Wait() // the abandoned call returns; its answer must not land

		// Round 3: b restarted under the poller and answers a Reset.
		b.script(UsageDelta{Rev: 2, Reset: true, Changed: map[string]UserUsage{"carol": {1, 2}}}, nil)
		snaps = p.Poll(deadline)
		if want := map[string]UserUsage{"carol": {1, 2}}; snaps[1] == nil || snaps[1].Rev != 2 || !maps.Equal(snaps[1].ByUser, want) {
			t.Errorf("b after its Reset = %+v, want rev 2 and %v", snaps[1], want)
		}
		b.mu.Lock()
		defer b.mu.Unlock()
		if want := []int64{0, 7, 7}; !slices.Equal(b.sinces, want) {
			t.Errorf("b was asked since %v, want %v: the abandoned round moved its rev", b.sinces, want)
		}
	})
}
