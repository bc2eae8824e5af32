package sim

import (
	"fmt"
	"sort"
	"testing"
)

// The kernel oracle: a byte string decodes to a sequence of scheduling,
// cancelling and clock-driving calls — issued from outside and from inside
// callbacks — that runs once against the Engine and once against refKernel,
// the kernel as one would write it without caring about speed. Everything
// either side can observe is logged after every step and at every firing,
// and the logs must be equal line for line.

// kernel is the surface the oracle drives; Engine (through engineKernel)
// and refKernel both provide it.
type kernel interface {
	Now() Time
	Pending() int
	Fired() uint64
	At(t Time, fire func()) canceller
	After(d Duration, fire func()) canceller
	Every(period Duration, fire func()) stopper
	NewTimer(fire func()) timer
	Step() bool
	Run() Time
	RunUntil(deadline Time) Time
	Halt()
}

type canceller interface{ Cancel() }

type stopper interface{ Stop() }

type timer interface {
	Reset(d Duration)
	ResetAt(at Time)
	Stop() bool
	Pending() bool
}

type engineKernel struct{ *Engine }

func (k engineKernel) At(t Time, fire func()) canceller {
	h := k.Engine.At(t, fire)
	return &h
}

func (k engineKernel) After(d Duration, fire func()) canceller {
	h := k.Engine.After(d, fire)
	return &h
}

func (k engineKernel) Every(p Duration, fire func()) stopper { return k.Engine.Every(p, fire) }
func (k engineKernel) NewTimer(fire func()) timer            { return NewTimer(k.Engine, fire) }

// refKernel is the reference: pending events in a slice kept sorted by
// (at, seq), one event dispatched at a time, cancellation deletes.
type refKernel struct {
	now    Time
	seq    uint64
	fired  uint64
	halted bool
	queue  []refEvent
	// staleCancel records that a cancel named an event no longer queued.
	// The Engine may keep a tombstone for it, which under-counts Pending
	// until the next compaction (documented on Pending), so log lines from
	// then on are marked and the oracle stops comparing that one figure.
	staleCancel bool
}

type refEvent struct {
	at   Time
	seq  uint64
	fire func()
}

func (r *refKernel) Now() Time     { return r.now }
func (r *refKernel) Pending() int  { return len(r.queue) }
func (r *refKernel) Fired() uint64 { return r.fired }
func (r *refKernel) Halt()         { r.halted = true }

func (r *refKernel) schedule(t Time, fire func()) uint64 {
	if t < r.now {
		panic("reference: scheduling into the past")
	}
	seq := r.seq
	r.seq++
	// seq is the largest so far: the slot is after every event due by t.
	i := sort.Search(len(r.queue), func(i int) bool { return r.queue[i].at > t })
	r.queue = append(r.queue, refEvent{})
	copy(r.queue[i+1:], r.queue[i:])
	r.queue[i] = refEvent{t, seq, fire}
	return seq
}

func (r *refKernel) cancel(seq uint64) {
	for i := range r.queue {
		if r.queue[i].seq == seq {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			return
		}
	}
	r.staleCancel = true
}

func (r *refKernel) fireFirst() {
	ev := r.queue[0]
	r.queue = r.queue[1:]
	r.now = ev.at
	r.fired++
	ev.fire()
}

func (r *refKernel) Step() bool {
	if len(r.queue) == 0 {
		return false
	}
	r.fireFirst()
	return true
}

func (r *refKernel) Run() Time {
	r.halted = false
	for !r.halted && len(r.queue) > 0 {
		r.fireFirst()
	}
	return r.now
}

func (r *refKernel) RunUntil(deadline Time) Time {
	r.halted = false
	for !r.halted {
		if len(r.queue) == 0 || r.queue[0].at > deadline {
			if r.now < deadline {
				r.now = deadline
			}
			break
		}
		r.fireFirst()
	}
	return r.now
}

type refHandle struct {
	r         *refKernel
	seq       uint64
	cancelled bool
}

func (h *refHandle) Cancel() {
	if !h.cancelled {
		h.cancelled = true
		h.r.cancel(h.seq)
	}
}

func (r *refKernel) At(t Time, fire func()) canceller {
	return &refHandle{r: r, seq: r.schedule(t, fire)}
}

func (r *refKernel) After(d Duration, fire func()) canceller { return r.At(r.now+Time(d), fire) }

// refTicker restates Ticker: Stop cancels through a copy of the handle, so
// it reaches the kernel every time it is called.
type refTicker struct {
	r       *refKernel
	period  Duration
	fire    func()
	seq     uint64
	stopped bool
}

func (r *refKernel) Every(period Duration, fire func()) stopper {
	tk := &refTicker{r: r, period: period, fire: fire}
	tk.seq = r.schedule(r.now+Time(period), tk.tick)
	return tk
}

func (tk *refTicker) tick() {
	if tk.stopped {
		return
	}
	tk.fire()
	if !tk.stopped {
		tk.seq = tk.r.schedule(tk.r.now+Time(tk.period), tk.tick)
	}
}

func (tk *refTicker) Stop() {
	tk.stopped = true
	tk.r.cancel(tk.seq)
}

type refTimer struct {
	r       *refKernel
	fire    func()
	seq     uint64
	pending bool
}

func (r *refKernel) NewTimer(fire func()) timer {
	t := &refTimer{r: r}
	t.fire = func() {
		t.pending = false
		fire()
	}
	return t
}

func (t *refTimer) Reset(d Duration) { t.ResetAt(t.r.now + Time(d)) }

func (t *refTimer) ResetAt(at Time) {
	if t.pending {
		t.r.cancel(t.seq)
	}
	t.seq = t.r.schedule(at, t.fire)
	t.pending = true
}

func (t *refTimer) Stop() bool {
	if !t.pending {
		return false
	}
	t.r.cancel(t.seq)
	t.pending = false
	return true
}

func (t *refTimer) Pending() bool { return t.pending }

// world is K kernels advanced to common deadlines: a ShardSet (at K=1 its
// RunUntil is the bare Engine's), or the reference kernels side by side.
type world interface {
	shard(i int) kernel
	Now() Time
	RunUntil(deadline Time) Time
	RunFor(d Duration) Time
}

type setWorld struct{ *ShardSet }

func (w setWorld) shard(i int) kernel { return engineKernel{w.ShardAt(i)} }

type refWorld []*refKernel

func (w refWorld) shard(i int) kernel { return w[i] }

func (w refWorld) Now() Time {
	min := w[0].now
	for _, r := range w[1:] {
		if r.now < min {
			min = r.now
		}
	}
	return min
}

func (w refWorld) RunUntil(deadline Time) Time {
	for _, r := range w {
		r.RunUntil(deadline)
	}
	return w.Now()
}

func (w refWorld) RunFor(d Duration) Time { return w.RunUntil(w.Now() + Time(d)) }

// session is one shard's half of a run: the kernel, the objects the
// program has created on it, and the log. Callbacks touch only their own
// shard's session, so a ShardSet may fire them in parallel.
type session struct {
	k           kernel
	handles     []canceller
	timers      []timer
	tickers     []stopper
	stopped     []bool // per ticker
	liveTickers int
	inRun       bool // Run is on the stack: a ticker born now would never let it return
	callbacks   int
	log         []logLine
}

// logLine is one observation: what happened (to which object, with what
// result) and everything the kernel reports about itself at that point.
type logLine struct {
	what    string
	n       int
	result  bool
	now     Time
	fired   uint64
	pending int
	inexact bool // reference only: pending is no longer comparable
}

func (l logLine) String() string {
	return fmt.Sprintf("%s %d %v | now=%v fired=%d pending=%d", l.what, l.n, l.result, float64(l.now), l.fired, l.pending)
}

func (s *session) note(what string, n int, result bool) {
	ref, _ := s.k.(*refKernel)
	s.log = append(s.log, logLine{what, n, result, s.k.Now(), s.k.Fired(), s.k.Pending(), ref != nil && ref.staleCancel})
}

// Opcodes. Those below opStep act on one shard and are legal inside a
// callback; the rest drive the clock and come from outside only.
const (
	opAt = iota
	opAfter
	opEvery
	opNewTimer
	opReset
	opResetAt
	opTimerStop
	opCancel
	opTickerStop
	opHalt
	opTimerPending
	opStep
	opRun
	opRunUntil
	opRunFor
	opCount
)

const maxTickers = 3 // per shard: every live one fires through every run

// Times sit on a half-second grid so that instants collide all the time.
func delay(arg byte) Duration  { return Duration(arg%8) * 0.5 }
func period(arg byte) Duration { return Duration(arg%3+1) * 0.5 }

// callback builds a callback that logs its firing and then executes prog.
// A one-shot event runs it once; a timer or ticker works through it one
// firing at a time and does nothing once it is used up — which is what
// bounds a timer that re-arms itself at delay zero.
func (s *session) callback(kind string, prog []byte) func() {
	id := s.callbacks
	s.callbacks++
	return func() {
		s.note("fire "+kind, id, true)
		prog = s.exec(prog)
	}
}

// exec runs the first firing's worth of prog — a count byte, then that
// many 3-byte actions — and returns what is left, which is also the
// program any callback those actions create starts with.
func (s *session) exec(prog []byte) []byte {
	if len(prog) == 0 {
		return nil
	}
	n := int(prog[0] % 4)
	prog = prog[1:]
	if len(prog) < 3*n {
		n = len(prog) / 3
	}
	acts, rest := prog[:3*n], prog[3*n:]
	for ; len(acts) > 0; acts = acts[3:] {
		s.do(acts[0]%opStep, acts[1], acts[2], rest)
	}
	return rest
}

// do performs one shard-level operation; cb is the program of any callback
// it creates.
func (s *session) do(op, idx, arg byte, cb []byte) {
	k := s.k
	switch op {
	case opAt:
		s.handles = append(s.handles, k.At(k.Now()+Time(delay(arg)), s.callback("at", cb)))
	case opEvery:
		if len(s.tickers) < maxTickers && !s.inRun {
			s.tickers = append(s.tickers, k.Every(period(arg), s.callback("tick", cb)))
			s.stopped = append(s.stopped, false)
			s.liveTickers++
			break
		}
		fallthrough
	case opAfter:
		s.handles = append(s.handles, k.After(delay(arg), s.callback("after", cb)))
	case opNewTimer:
		tm := k.NewTimer(s.callback("timer", cb))
		tm.Reset(delay(arg))
		s.timers = append(s.timers, tm)
	case opReset, opResetAt, opTimerStop, opTimerPending:
		if len(s.timers) == 0 {
			return
		}
		i := int(idx) % len(s.timers)
		switch tm := s.timers[i]; op {
		case opReset:
			tm.Reset(delay(arg))
		case opResetAt:
			tm.ResetAt(k.Now() + Time(delay(arg)))
		case opTimerStop:
			s.note("timer stop", i, tm.Stop())
		case opTimerPending:
			s.note("timer pending", i, tm.Pending())
		}
	case opCancel:
		if len(s.handles) > 0 {
			s.handles[int(idx)%len(s.handles)].Cancel()
		}
	case opTickerStop:
		if len(s.tickers) > 0 {
			i := int(idx) % len(s.tickers)
			s.tickers[i].Stop()
			if !s.stopped[i] {
				s.stopped[i] = true
				s.liveTickers--
			}
		}
	case opHalt:
		k.Halt()
	}
}

// Outside, each operation is a 5-byte header — opcode, shard, object index,
// argument, callback program length — followed by that program.
const maxCallbackProg = 10

func runProgram(w world, k int, data []byte) []*session {
	sessions := make([]*session, k)
	for i := range sessions {
		sessions[i] = &session{k: w.shard(i)}
	}
	for step := 0; len(data) >= 5; step++ {
		op, s, idx, arg := data[0]%opCount, sessions[int(data[1])%k], data[2], data[3]
		n := int(data[4]) % (maxCallbackProg + 1)
		data = data[5:]
		if n > len(data) {
			n = len(data)
		}
		cb := data[:n:n]
		data = data[n:]
		switch op {
		case opStep:
			s.note("step", step, s.k.Step())
		case opRun:
			if s.liveTickers == 0 { // a live ticker never lets Run return
				s.inRun = true
				s.k.Run()
				s.inRun = false
			}
		case opRunUntil:
			w.RunUntil(w.Now() + Time(delay(arg)))
		case opRunFor:
			w.RunFor(delay(arg))
		default:
			s.do(op, idx, arg, cb)
		}
		for _, s := range sessions {
			s.note("after step", step, true)
		}
	}
	return sessions
}

// checkAgainstReference runs data on the reference and on the Engine in
// every mode, and compares the logs.
func checkAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	for _, mode := range []struct {
		name   string
		k      int
		shared bool
	}{
		{"k1", 1, false},
		{"k1-shared", 1, true},
		{"k4", 4, false},
		{"k4-shared", 4, true},
	} {
		ref := make(refWorld, mode.k)
		for i := range ref {
			ref[i] = &refKernel{}
		}
		want := runProgram(ref, mode.k, data)

		set := NewShardSet(1, mode.k)
		if mode.shared {
			set.Share()
		}
		got := runProgram(setWorld{set}, mode.k, data)

		for i := range want {
			if len(got[i].log) != len(want[i].log) {
				t.Fatalf("%s shard %d: %d log lines, reference has %d", mode.name, i, len(got[i].log), len(want[i].log))
			}
			for j, wl := range want[i].log {
				gl := got[i].log[j]
				if wl.inexact {
					gl.pending = wl.pending
				}
				gl.inexact = wl.inexact
				if gl != wl {
					t.Fatalf("%s shard %d line %d:\n got  %v\n want %v", mode.name, i, j, gl, wl)
				}
			}
		}
	}
}

// prog builds seed programs in the encoding runProgram reads.
type prog []byte

// op appends one outside operation on shard 0 (every seed below must hold
// at K=1; at K=4 the other shards idle along).
func (p prog) op(op, idx, arg byte, cb ...byte) prog {
	return append(append(p, op, 0, idx, arg, byte(len(cb))), cb...)
}

func (p prog) times(n int, f func(p prog, i int) prog) prog {
	for i := 0; i < n; i++ {
		p = f(p, i)
	}
	return p
}

func FuzzEngineMatchesReference(f *testing.F) {
	// PR 12: more than 64 cancels on an idle heap compact it to empty.
	f.Add([]byte(prog{}.
		times(70, func(p prog, i int) prog { return p.op(opAfter, 0, byte(1+i%7)) }).
		times(70, func(p prog, i int) prog { return p.op(opCancel, byte(i), 0) }).
		op(opRunUntil, 0, 7).op(opAfter, 0, 1).op(opRunUntil, 0, 7)))
	// Halt mid-batch, then After(0) at the halted instant: the requeued
	// remainder has older seqs than the two events the first callback
	// scheduled for this instant, so the newcomer must not join it.
	f.Add([]byte(prog{}.
		op(opAt, 0, 2, 3, opAfter, 0, 0, opAfter, 0, 0, opHalt, 0, 0).
		op(opAt, 0, 2).op(opAt, 0, 2).
		op(opRunUntil, 0, 4).op(opAfter, 0, 0).op(opRunUntil, 0, 4)))
	// Step with a run on top: one event off it, the rest stay, and a later
	// schedule for the instant still lands behind them.
	f.Add([]byte(prog{}.
		op(opAt, 0, 2).op(opAt, 0, 2).op(opAt, 0, 2).op(opStep, 0, 0).
		op(opAt, 0, 0).op(opStep, 0, 0).op(opCancel, 2, 0).op(opStep, 0, 0).op(opStep, 0, 0).op(opStep, 0, 0)))
	// Every member of a run cancelled, the run due before the deadline:
	// under Run the clock must not visit its time.
	f.Add([]byte(prog{}.
		op(opAt, 0, 1).op(opAt, 0, 4).op(opAt, 0, 4).op(opAt, 0, 4).
		op(opCancel, 1, 0).op(opCancel, 2, 0).op(opCancel, 3, 0).op(opRun, 0, 0).op(opRunUntil, 0, 1)))
	// The first member of a run cancelled, compaction, then a later entry
	// for the same instant: the run keeps its place under the seq it lost.
	f.Add([]byte(prog{}.
		op(opAt, 0, 5).op(opAt, 0, 5).op(opAt, 0, 5).op(opCancel, 0, 0).
		times(70, func(p prog, i int) prog { return p.op(opAfter, 0, byte(1+i%7)) }).
		times(70, func(p prog, i int) prog { return p.op(opCancel, byte(3+i), 0) }).
		op(opAt, 0, 5).op(opRunUntil, 0, 7)))
	// Timer.Reset of a pending timer whose expiry sits inside a run.
	f.Add([]byte(prog{}.
		op(opAt, 0, 4).op(opNewTimer, 0, 4).op(opAt, 0, 4).
		op(opReset, 0, 2).op(opRunUntil, 0, 5).op(opTimerPending, 0, 0).
		op(opReset, 0, 2).op(opAfter, 0, 2).op(opTimerStop, 0, 0).op(opRunUntil, 0, 5)))
	// At(now) twice from a callback of the batch firing at now.
	f.Add([]byte(prog{}.
		op(opAt, 0, 2, 2, opAt, 0, 0, opAt, 0, 0).op(opAt, 0, 2).op(opRunUntil, 0, 3)))
	// A run due after the RunUntil deadline.
	f.Add([]byte(prog{}.
		op(opAt, 0, 6).op(opAt, 0, 6).op(opAt, 0, 6).op(opRunUntil, 0, 4).op(opRunFor, 0, 4)))
	// Tickers and self-re-arming timers on a shared instant: the aligned
	// heartbeat, re-armed from inside the tick.
	f.Add([]byte(prog{}.
		times(4, func(p prog, i int) prog {
			return p.op(opNewTimer, 0, 2, 1, opReset, byte(i), 2, 1, opReset, byte(i), 2)
		}).
		op(opEvery, 0, 1, 1, opTickerStop, 0, 0).op(opEvery, 0, 1).
		op(opRunFor, 0, 3).op(opRunFor, 0, 7).op(opTickerStop, 1, 0).op(opRun, 0, 0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("longer than any program worth running")
		}
		checkAgainstReference(t, data)
	})
}
