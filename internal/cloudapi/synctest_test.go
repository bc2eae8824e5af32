//go:build goexperiment.synctest

package cloudapi

import (
	"maps"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"osdc/internal/wire"
)

// scriptedSite is a site's usage route, reached by a real Remote over an
// in-memory transport (a bubble cannot hold a socket): it answers
// whatever delta the test scripted, or with hang set accepts the request
// and never answers, counting each request its client cancelled. It
// records the revision every request asked from.
type scriptedSite struct {
	mu        sync.Mutex
	reply     UsageDelta
	hang      bool
	sinces    []int64
	cancelled int
}

func (s *scriptedSite) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	since, _ := strconv.ParseInt(r.URL.Query().Get("since"), 10, 64)
	s.mu.Lock()
	s.sinces = append(s.sinces, since)
	reply, hang := s.reply, s.hang
	s.mu.Unlock()
	if hang {
		<-r.Context().Done()
		s.mu.Lock()
		s.cancelled++
		s.mu.Unlock()
		return
	}
	wire.WriteJSON(w, http.StatusOK, reply)
}

func (s *scriptedSite) script(d UsageDelta, hang bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reply, s.hang = d, hang
}

// TestSynctestUsagePollerRoundsAndReset runs UsagePoller's rounds over
// real Remotes on a fake wall clock. A hung site's request is cancelled
// at exactly the deadline, the site sees the cancellation, and its
// snapshot's rev stays put, so the next round asks from the same
// revision. A Reset delta (the site restarted under the poller) then
// replaces the snapshot whole.
// Run with GOEXPERIMENT=synctest go test -run Synctest ./internal/cloudapi/.
// The bubble runs on its own goroutine, so failures are t.Error.
func TestSynctestUsagePollerRoundsAndReset(t *testing.T) {
	synctest.Run(func() {
		const deadline = 50 * time.Millisecond
		a, b := &scriptedSite{}, &scriptedSite{}
		remote := func(name string, s *scriptedSite) CloudAPI {
			return NewRemote(name, "openstack", "http://"+name+".test", &http.Client{Transport: handlerTransport{s}})
		}
		p := NewUsagePoller([]CloudAPI{remote("a", a), remote("b", b)})
		users := func(u *Usage) map[string]UserUsage {
			if u == nil {
				return nil
			}
			return u.ByUser
		}

		// Round 1: both answer full snapshots at once.
		a.script(UsageDelta{Rev: 3, Reset: true, Changed: map[string]UserUsage{"alice": {1, 4}}}, false)
		b.script(UsageDelta{Rev: 7, Reset: true, Changed: map[string]UserUsage{"bob": {2, 8}}}, false)
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
		a.script(UsageDelta{Rev: 4, Changed: map[string]UserUsage{"amy": {1, 1}}}, false)
		b.script(UsageDelta{}, true)
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

		// Round 3: b restarted under the poller and answers a Reset.
		b.script(UsageDelta{Rev: 2, Reset: true, Changed: map[string]UserUsage{"carol": {1, 2}}}, false)
		snaps = p.Poll(deadline)
		if want := map[string]UserUsage{"carol": {1, 2}}; snaps[1] == nil || snaps[1].Rev != 2 || !maps.Equal(snaps[1].ByUser, want) {
			t.Errorf("b after its Reset = %+v, want rev 2 and %v", snaps[1], want)
		}
		b.mu.Lock()
		defer b.mu.Unlock()
		if b.cancelled != 1 {
			t.Errorf("b saw %d requests cancelled, want the hung round's 1", b.cancelled)
		}
		if want := []int64{0, 7, 7}; !slices.Equal(b.sinces, want) {
			t.Errorf("b was asked since %v, want %v: the cancelled round moved its rev", b.sinces, want)
		}
	})
}
