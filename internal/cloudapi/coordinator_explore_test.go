package cloudapi

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"osdc/internal/sim"
)

// The clock coordinator's step, settle, checked over every history of
// answers: in each round each site's read-and-push is ok, refused after
// the read (error), applied at the site but cut at the deadline (late), or
// cut before it reached the site (lost). A site's follower is modelled as
// caught up: its clock is the newest target it applied.

type clockAnswer uint8

const (
	clockOK clockAnswer = iota
	clockError
	clockLate
	clockLost
	clockAnswers
)

// clockRound is the console's virtual time gained per round.
const clockRound = 10

// clockWorld is the coordinator's records beside each site's clock.
type clockWorld struct {
	sites []clockSite
	clock []sim.Time
}

func (w clockWorld) clone() clockWorld {
	return clockWorld{slices.Clone(w.sites), slices.Clone(w.clock)}
}

// round settles round r, at console time (r+1)·clockRound, as answers says,
// checking each site's record and clock against the previous round's.
func (w *clockWorld) round(r int, answers []clockAnswer) error {
	now := sim.Time((r + 1) * clockRound)
	for i, a := range answers {
		s, before, was := &w.sites[i], w.sites[i], w.clock[i]
		o := syncOutcome{read: true, skew: max(float64(now-w.clock[i]), 0), now: now}
		if a == clockError {
			o.err = errors.New("refused")
		}
		if a == clockOK || a == clockLate {
			w.clock[i] = now
		}
		s.settle(o, a == clockOK || a == clockError)
		switch {
		case s.Syncs+s.Errors != before.Syncs+before.Errors+1:
			return fmt.Errorf("site %d settled %d times in one round", i, s.Syncs+s.Errors-before.Syncs-before.Errors)
		case (s.Syncs > before.Syncs) != (a == clockOK):
			return fmt.Errorf("site %d answered %d but Syncs went %d → %d", i, a, before.Syncs, s.Syncs)
		case w.clock[i] < was || w.clock[i] > now:
			return fmt.Errorf("site %d's pushed target went %v → %v at console time %v", i, was, w.clock[i], now)
		case s.pushed && (s.lastPush < before.lastPush || s.lastPush > now):
			return fmt.Errorf("site %d's last push went %v → %v at console time %v", i, before.lastPush, s.lastPush, now)
		case s.LastSkew < 0 || s.MaxExcess != 0:
			// A caught-up follower trails by the span since its last sync
			// at most: any excess is the coordinator's bookkeeping.
			return fmt.Errorf("site %d: skew %v, excess %v", i, s.LastSkew, s.MaxExcess)
		}
	}
	return nil
}

// visit explores every history from round r to rounds, memoised on state.
func (w clockWorld) visit(t *testing.T, r, rounds int, memo map[string]bool, hist [][]clockAnswer) {
	key := fmt.Sprint(r, w.sites, w.clock)
	if r == rounds || memo[key] {
		return
	}
	memo[key] = true
	combos := 1
	for range w.sites {
		combos *= int(clockAnswers)
	}
	for code := range combos {
		answers := make([]clockAnswer, len(w.sites))
		for i := range answers {
			answers[i] = clockAnswer(code % int(clockAnswers))
			code /= int(clockAnswers)
		}
		next, h := w.clone(), append(slices.Clip(hist), answers)
		if err := next.round(r, answers); err != nil {
			t.Fatalf("%v\nhistory (0 ok, 1 error, 2 late, 3 lost): %v", err, h)
		}
		next.visit(t, r+1, rounds, memo, h)
	}
}

// TestClockStepExplored checks settle exhaustively at 2 sites over 4
// rounds and at 3 sites over 2: each site settles exactly once per round,
// only an answered push is a sync, and the target a site took never runs
// backwards nor past the console.
func TestClockStepExplored(t *testing.T) {
	for _, bound := range []struct{ sites, rounds int }{{2, 4}, {3, 2}} {
		w := clockWorld{make([]clockSite, bound.sites), make([]sim.Time, bound.sites)}
		memo := map[string]bool{}
		w.visit(t, 0, bound.rounds, memo, nil)
		t.Logf("%d sites × %d rounds: %d states", bound.sites, bound.rounds, len(memo))
	}
}
