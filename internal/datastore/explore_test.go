package datastore

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"

	"osdc/internal/datasets"
)

// The replication step, checked over histories of site answers. A world is
// the coordinator's view beside model site stores; a round runs the pure
// calls Round runs — arrive, settle, lists, step, settle — with do
// replaced by one answer kind per site, which every call that site gets in
// the round receives. Which in-flight transfers arrive is chosen per round
// too, so no flow is priced.

// kind is how a site answers every call it gets in one round.
type kind uint8

const (
	answerOK    kind = iota // applied and answered
	answerError             // refused: no effect, an error
	answerLate              // applied at the site, but cut at the deadline
	answerLost              // cut before it reached the site
	kindCount
)

func (k kind) String() string { return [...]string{"ok", "error", "late", "lost"}[k] }

var errRefused = errors.New("refused")

// modelStore is a site store a world can copy: Store's revision and delta
// rules without a volume.
type modelStore struct {
	replicas     map[string]Replica
	rev          int64
	revs, graves map[string]int64
}

func (s *modelStore) clone() modelStore {
	return modelStore{maps.Clone(s.replicas), s.rev, maps.Clone(s.revs), maps.Clone(s.graves)}
}

// apply makes one call at the store.
func (s *modelStore) apply(k call) answer {
	ds := k.rep.Dataset
	switch k.op {
	case opList:
		d := Delta{Rev: s.rev, Reset: k.since <= 0 || k.since > s.rev}
		for ds, r := range s.replicas {
			if d.Reset || s.revs[ds] > k.since {
				d.Changed = append(d.Changed, r)
			}
		}
		for ds, rev := range s.graves {
			if !d.Reset && rev > k.since {
				d.Removed = append(d.Removed, ds)
			}
		}
		return answer{delta: d}
	case opGet:
		r, ok := s.replicas[ds]
		if !ok {
			return answer{err: ErrNoReplica}
		}
		return answer{rep: r}
	case opPut:
		s.rev++
		s.replicas[ds], s.revs[ds] = k.rep, s.rev
		delete(s.graves, ds)
	case opDelete:
		if _, ok := s.replicas[ds]; !ok {
			return answer{err: ErrNoReplica}
		}
		s.rev++
		delete(s.replicas, ds)
		delete(s.revs, ds)
		s.graves[ds] = s.rev
	}
	return answer{}
}

// setup is a world's starting point: the factor, each site's replicas
// (site 0 is the anchor) and the staged pins.
type setup struct {
	name   string
	factor int
	held   [][]Replica
	pins   []pair
}

var exploreCatalog = []*datasets.Dataset{{Name: "a"}, {Name: "b"}}

func healthy(ds string, size int64) Replica {
	return Replica{Dataset: ds, SizeBytes: size, Checksum: Fingerprint(ds, 1), Version: 1}
}

func siteName(i int) string { return fmt.Sprintf("s%d", i) }

// setups returns the starting points for n sites: masters to replicate,
// an over-replicated dataset to drain (around a pinned copy, at three
// sites and up), and a corrupt copy that rotation picks as a source at
// three sites and up.
func setups(n int) []setup {
	masters := []Replica{healthy("a", 1), healthy("b", 2)}
	repair := setup{name: "repair", factor: min(n, 3), held: make([][]Replica, n)}
	repair.held[0] = masters
	drain := setup{name: "drain", factor: 1, held: make([][]Replica, n)}
	if n > 2 {
		drain.pins = []pair{{"a", siteName(n - 1)}}
	}
	for i := range drain.held {
		drain.held[i] = []Replica{healthy("a", 1)}
	}
	drain.held[0] = masters
	corrupt := setup{name: "corrupt", factor: min(n, 3), held: make([][]Replica, n)}
	corrupt.held[0] = masters
	bad := healthy("b", 2)
	bad.Checksum = "rot"
	corrupt.held[1] = []Replica{bad}
	return []setup{repair, drain, corrupt}
}

// world is the coordinator's view beside the sites it models.
type world struct {
	su     *setup
	v      view
	stores []modelStore
}

func newWorld(su *setup) *world {
	apis := make([]API, len(su.held))
	for i := range apis {
		apis[i] = unreachableAPI{name: siteName(i), loc: fmt.Sprintf("l%d", i)}
	}
	w := &world{su: su, v: newView(su.factor, apis), stores: make([]modelStore, len(apis))}
	for _, p := range su.pins {
		w.v.pinned[p] = true
	}
	for i, held := range su.held {
		w.stores[i] = modelStore{replicas: map[string]Replica{}, revs: map[string]int64{}, graves: map[string]int64{}}
		for _, r := range held {
			w.stores[i].apply(call{op: opPut, rep: r})
		}
	}
	return w
}

func (w *world) clone() *world {
	c := &world{su: w.su, v: w.v, stores: make([]modelStore, len(w.stores))}
	c.v.sites = slices.Clone(w.v.sites)
	for i := range c.v.sites {
		c.v.sites[i].seen = maps.Clone(w.v.sites[i].seen)
	}
	c.v.inflight = maps.Clone(w.v.inflight)
	c.v.links = make(map[string]*LinkStats, len(w.v.links))
	for k, l := range w.v.links {
		cp := *l
		c.v.links[k] = &cp
	}
	for i := range w.stores {
		c.stores[i] = w.stores[i].clone()
	}
	return c
}

// inflight returns the transfers in flight by (dataset, destination).
func (w *world) inflight() []*Transfer {
	ts := slices.Collect(maps.Values(w.v.inflight))
	sort.Slice(ts, func(i, j int) bool {
		return ts[i].Dataset+"→"+ts[i].To < ts[j].Dataset+"→"+ts[j].To
	})
	return ts
}

// answer makes calls at the model sites as each site's kind says.
func (w *world) answer(calls []call, kinds []kind) []answer {
	out := make([]answer, len(calls))
	for i, k := range calls {
		switch kinds[k.site] {
		case answerOK:
			out[i] = w.stores[k.site].apply(k)
		case answerError:
			out[i].err = errRefused
		case answerLate:
			w.stores[k.site].apply(k)
			out[i].err = errNoAnswer
		case answerLost:
			out[i].err = errNoAnswer
		}
	}
	return out
}

// round runs one Round's pure calls with arrivals landing and each site
// answering as kinds says, checking every invariant on the way. It returns
// how many transfers the step planned and how many Deletes it drained.
func (w *world) round(arrivals []*Transfer, kinds []kind) (planned, drained int, err error) {
	v := &w.v
	// Arrivals: each leaves flight once, its bytes are booked, a corrupt
	// copy is never Put, and only a Put answered ok is a transfer.
	moved, transfers, flying := v.stats.BytesMoved, v.stats.Transfers, len(v.inflight)
	calls := v.arrive(arrivals)
	var bytes int64
	for i, t := range arrivals {
		bytes += t.Bytes
		if v.inflight[pair{t.Dataset, t.To}] != nil {
			return 0, 0, fmt.Errorf("%s→%s still in flight after it arrived", t.Dataset, t.To)
		}
		if calls[i].op == opPut && t.Checksum != Fingerprint(t.Dataset, t.Version) {
			return 0, 0, fmt.Errorf("corrupt copy of %s Put at %s", t.Dataset, t.To)
		}
	}
	if len(calls) != len(arrivals) || len(v.inflight) != flying-len(arrivals) {
		return 0, 0, fmt.Errorf("%d arrivals left flight %d times with %d calls", len(arrivals), flying-len(v.inflight), len(calls))
	}
	if got := v.stats.BytesMoved - moved; got != bytes {
		return 0, 0, fmt.Errorf("BytesMoved rose %d for %d bytes that left flight", got, bytes)
	}
	v.settle(calls, w.answer(calls, kinds))
	oks := 0
	for _, k := range calls {
		if k.op == opPut && kinds[k.site] == answerOK {
			oks++
		}
	}
	if got := v.stats.Transfers - transfers; got != int64(oks) {
		return 0, 0, fmt.Errorf("Transfers rose %d for %d Puts answered ok", got, oks)
	}

	// Observation: an answering site's view is its store; a silent one's is
	// carried unchanged inside the grace window and gone past it.
	carried := make([]map[string]Replica, len(v.sites))
	for i, s := range v.sites {
		carried[i] = maps.Clone(s.seen)
	}
	flying = len(v.inflight)
	plans, drains := v.step(exploreCatalog, w.answer(v.lists(), kinds))
	allObserved := true
	for i, s := range v.sites {
		switch {
		case kinds[i] == answerOK:
			if s.missed != 0 || !maps.Equal(s.seen, w.stores[i].replicas) {
				return 0, 0, fmt.Errorf("%s answered, but its view %v is not its store %v", s.name, s.seen, w.stores[i].replicas)
			}
		case s.missed > observeGrace:
			allObserved = false
			if s.seen != nil || s.rev != 0 {
				return 0, 0, fmt.Errorf("%s silent %d rounds still counts %v", s.name, s.missed, s.seen)
			}
		default:
			allObserved = false
			if s.missed < 1 || !maps.Equal(s.seen, carried[i]) {
				return 0, 0, fmt.Errorf("%s silent %d rounds: view %v, carried %v", s.name, s.missed, s.seen, carried[i])
			}
		}
	}

	// Planning: no pair is planned twice, and only answering holders feed
	// answering non-holders.
	if len(v.inflight) != flying+len(plans) {
		return 0, 0, fmt.Errorf("%d plans over %d in flight left %d: a (dataset, destination) pair planned twice", len(plans), flying, len(v.inflight))
	}
	for _, t := range plans {
		src, dst := v.index[t.From], v.index[t.To]
		_, srcHolds := v.sites[src].seen[t.Dataset]
		_, dstHolds := v.sites[dst].seen[t.Dataset]
		if kinds[src] != answerOK || kinds[dst] != answerOK || !srcHolds || dstHolds {
			return 0, 0, fmt.Errorf("planned %s %s→%s: source holds %t, destination holds %t, answers %v", t.Dataset, t.From, t.To, srcHolds, dstHolds, kinds)
		}
	}

	// Drains: on full information only, nothing pending, never the anchor
	// or a pin, and never below the factor of confirmed holders.
	left := map[string]int{}
	for _, k := range drains {
		ds, s := k.rep.Dataset, v.sites[k.site]
		if k.site == 0 || v.pinned[pair{ds, s.name}] || !allObserved {
			return 0, 0, fmt.Errorf("drained %s at %s: anchor %t, pinned %t, all observed %t", ds, s.name, k.site == 0, v.pinned[pair{ds, s.name}], allObserved)
		}
		for _, t := range v.inflight {
			if t.Dataset == ds {
				return 0, 0, fmt.Errorf("drained %s at %s with %s→%s pending", ds, s.name, t.From, t.To)
			}
		}
		if _, ok := left[ds]; !ok {
			for _, o := range v.sites {
				if _, holds := o.seen[ds]; holds {
					left[ds]++
				}
			}
		}
		if left[ds]--; left[ds] < v.factor {
			return 0, 0, fmt.Errorf("draining %s leaves %d confirmed holders, under the factor %d", ds, left[ds], v.factor)
		}
	}
	v.settle(drains, w.answer(drains, kinds))
	return len(plans), len(drains), nil
}

// converge runs all-ok rounds, every transfer arriving the round after it
// was planned, until a round does nothing; then every dataset must sit at
// min(factor, sites) holders, plus any pinned copies, with nothing in
// flight. It returns how many rounds that took.
func (w *world) converge() (int, error) {
	ok := make([]kind, len(w.stores))
	for r := 1; r <= 8; r++ {
		arrivals := w.inflight()
		planned, drained, err := w.round(arrivals, ok)
		if err != nil {
			return r, fmt.Errorf("converging round %d: %w", r, err)
		}
		if planned+drained+len(arrivals) > 0 {
			continue
		}
		want := min(w.su.factor, len(w.stores))
		for _, d := range exploreCatalog {
			holders, pins := 0, 0
			for _, s := range w.stores {
				if _, ok := s.replicas[d.Name]; ok {
					holders++
				}
			}
			for _, p := range w.su.pins {
				if p[0] == d.Name {
					pins++
				}
			}
			if holders < want || holders > want+pins {
				return r, fmt.Errorf("converged with %s at %d holders, want %d (+%d pinned)", d.Name, holders, want, pins)
			}
		}
		return r, nil
	}
	return 8, fmt.Errorf("not converged after 8 all-ok rounds: %d in flight", len(w.v.inflight))
}

// key is the world's state, everything a later round can see: stats are
// left out, their invariants being checked per round.
func (w *world) key() string {
	var b strings.Builder
	replicas := func(m map[string]Replica) {
		for _, ds := range slices.Sorted(maps.Keys(m)) {
			fmt.Fprintf(&b, " %s:%d:%.4s", ds, m[ds].SizeBytes, m[ds].Checksum)
		}
	}
	for i, s := range w.v.sites {
		fmt.Fprintf(&b, "|%d rev %d missed %d nil %t", i, s.rev, s.missed, s.seen == nil)
		replicas(s.seen)
		st := &w.stores[i]
		fmt.Fprintf(&b, " / rev %d", st.rev)
		replicas(st.replicas)
		for _, ds := range slices.Sorted(maps.Keys(st.revs)) {
			fmt.Fprintf(&b, " +%s@%d", ds, st.revs[ds])
		}
		for _, ds := range slices.Sorted(maps.Keys(st.graves)) {
			fmt.Fprintf(&b, " -%s@%d", ds, st.graves[ds])
		}
	}
	for _, t := range w.inflight() {
		fmt.Fprintf(&b, "|%s %s→%s %.4s", t.Dataset, t.From, t.To, t.Checksum)
	}
	return b.String()
}

// move is one explored round: which in-flight transfers (by inflight()
// position) arrive, and how each site answers.
type move struct {
	arrive uint
	kinds  []kind
}

func (m move) String() string { return fmt.Sprintf("arrive %b %v", m.arrive, m.kinds) }

// explorer walks every history from a world, memoised on (state, rounds
// left), and remembers the history whose end took longest to converge.
type explorer struct {
	t          *testing.T
	memo       map[string]bool
	worst      []move
	worstSteps int
}

func (x *explorer) visit(w *world, left int, hist []move) {
	key := fmt.Sprint(left, w.key())
	if x.memo[key] {
		return
	}
	x.memo[key] = true
	if left == 0 {
		steps, err := w.clone().converge()
		if err != nil {
			x.t.Fatalf("%s: %v\nhistory: %v", w.su.name, err, hist)
		}
		if steps > x.worstSteps {
			x.worst, x.worstSteps = hist, steps
		}
		return
	}
	in := w.inflight()
	n := len(w.stores)
	combos := 1
	for range n {
		combos *= int(kindCount)
	}
	for mask := uint(0); mask < 1<<len(in); mask++ {
		var arrivals []*Transfer
		for j, t := range in {
			if mask>>j&1 == 1 {
				arrivals = append(arrivals, t)
			}
		}
		for code := range combos {
			kinds := make([]kind, n)
			for i := range kinds {
				kinds[i] = kind(code % int(kindCount))
				code /= int(kindCount)
			}
			next := w.clone()
			h := append(slices.Clip(hist), move{mask, kinds})
			if _, _, err := next.round(arrivals, kinds); err != nil {
				x.t.Fatalf("%s: %v\nhistory: %v", w.su.name, err, h)
			}
			x.visit(next, left-1, h)
		}
	}
}

// TestReplicationStepExplored checks the replication step over every
// history of answers — ok, error, late, lost, per site per round — and
// every choice of arriving transfers: exhaustively at 2 sites over 4
// rounds and at 3 sites over 2, from each setup, with the liveness check
// at the end of each history.
func TestReplicationStepExplored(t *testing.T) {
	states := 0
	for _, bound := range []struct{ sites, rounds int }{{2, 4}, {3, 2}} {
		for _, su := range setups(bound.sites) {
			x := &explorer{t: t, memo: map[string]bool{}}
			x.visit(newWorld(&su), bound.rounds, nil)
			states += len(x.memo)
			t.Logf("%d sites × %d rounds, %s: %d states; slowest to converge (%d rounds): %v",
				bound.sites, bound.rounds, su.name, len(x.memo), x.worstSteps, x.worst)
		}
	}
	t.Logf("%d states in all", states)
}

// FuzzReplicationStep samples histories past the explorer's bound: 3 or 4
// sites over up to 8 rounds, the same invariants after every round and the
// same liveness check at the end. Input: byte 0 picks 3 or 4 sites, byte 1
// the setup, then two bytes a round — the arriving transfers as a bit mask
// over inflight() and two bits of answer kind per site.
func FuzzReplicationStep(f *testing.F) {
	// The explorer's slowest histories to converge at 3 sites, and the one
	// that found a site back from silence read only in part: seen in round
	// 1, silent past the grace window, then answering with the churn since
	// its old revision and not a snapshot.
	f.Add([]byte{0, 0, 0, 0, 1, 4})             // repair: a Put to site 1 refused
	f.Add([]byte{0, 2, 0, 0, 0b101, 5})         // corrupt: the quarantine and an install refused
	f.Add([]byte{0, 1, 0, 1, 0, 1})             // drain: the anchor silent twice
	f.Add([]byte{0, 1, 0, 1, 0, 4, 0, 4, 0, 4}) // drain: site 1 silent past the grace window
	f.Add([]byte{1, 0, 0, 0, 0b11, 0b10101010}) // 4 sites: two installs, every site late
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		n := 3 + int(in[0]&1)
		sus := setups(n)
		w := newWorld(&sus[int(in[1])%len(sus)])
		var hist []move
		for in = in[2:]; len(in) >= 2 && len(hist) < 8; in = in[2:] {
			m := move{arrive: uint(in[0]), kinds: make([]kind, n)}
			for i := range m.kinds {
				m.kinds[i] = kind(in[1] >> (2 * i) & 3)
			}
			hist = append(hist, m)
			var arrivals []*Transfer
			for j, t := range w.inflight() {
				if j < 8 && m.arrive>>j&1 == 1 {
					arrivals = append(arrivals, t)
				}
			}
			if _, _, err := w.round(arrivals, m.kinds); err != nil {
				t.Fatalf("%s: %v\nhistory: %v", w.su.name, err, hist)
			}
		}
		if _, err := w.converge(); err != nil {
			t.Fatalf("%s: %v\nhistory: %v", w.su.name, err, hist)
		}
	})
}
