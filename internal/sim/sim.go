// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every timed subsystem in this repository — the WAN model, disks, transfer
// protocols, provisioning pipelines, billing pollers, monitoring agents —
// runs on top of a sim.Engine. The engine owns a virtual clock and a pending
// event queue ordered by (time, sequence). Determinism is guaranteed: two
// runs with the same seed and same schedule order produce identical traces,
// which is what makes the benchmark tables reproducible.
//
// The queue is a 4-ary heap over a value slice rather than a binary heap of
// event pointers: scheduling allocates nothing beyond amortized slice
// growth, the shallower tree halves the sift depth, and sift comparisons
// stay within one or two cache lines of siblings.
//
// # Cancellation
//
// Every heap entry points at a small slot holding the callback, the seq of
// the event the slot currently stands for, and a state: queued, batched or
// idle. A Timer embeds its own slot; At and After draw one from a free list
// the engine refills a block at a time, and get it back when the event
// fires or is cancelled. An entry is live while its slot still holds its
// seq and is queued, so Cancel only flips the slot's state: the entry left
// behind is a tombstone, reclaimed when it reaches the top or, once
// tombstones pass a quarter of the queue, by an O(n) rebuild — a workload
// that cancels most of its timers (retry timers, timeouts that rarely fire)
// cannot grow the heap without bound. A Handle names its event by slot and
// seq, so a Cancel after the event fired fails the seq test on the
// recycled slot and is a true no-op, and Pending is exact.
//
// # Batch dispatch
//
// The run loops (Run, RunUntil, RunFor) drain events in same-tick batches:
// every live event sharing the earliest due timestamp is popped under one
// lock acquisition and the callbacks fire unlocked, in FIFO (schedule)
// order. Workloads with synchronized timers — heartbeats aligned to a
// minute boundary, polling sweeps, barrier ticks — pay one lock round-trip
// per tick instead of one per event. Semantics are identical to per-event
// dispatch: order is still (at, seq); a callback cancelling a later event
// of the same tick prevents it from firing; Halt() mid-batch pushes the
// unfired remainder back onto the queue.
//
// # Run coalescing
//
// The schedule side batches too. The engine remembers the heap entry its
// most recent schedule created (the tail); a schedule due at exactly that
// entry's instant joins the entry's run — a pooled slice of {seq, slot}
// found through one map lookup per run — instead of the heap. The entry
// itself stays 24 bytes: a nil slot marks a run head, keyed by its first
// seq. A tick of N timers re-arming back to back for one instant
// therefore costs one sift in and one out, not N. Dispatch order is still
// exactly (at, seq): a run grows only while it is the tail, and seqs are
// issued in schedule order under the same lock, so the seq ranges of two
// entries of one instant never interleave, and heap order on (at, first
// seq) followed by in-run order is (at, seq) order. Anything that moves
// heap entries other than a push — pop, compaction — invalidates the tail,
// and so does the requeue after Halt, which re-inserts old seqs that a new
// schedule must not be appended to.
//
// For schedule/cancel-heavy hot paths, Timer (NewTimer/Reset) reschedules
// a pre-allocated callback on its own slot with zero steady-state
// allocations — the pooled-payload discipline the churn benchmarks measure.
//
// # Shared mode
//
// By default an Engine is single-threaded and lock-free: a scenario owns
// its engine and drives it from one goroutine, which is the hot path the
// sweeps exercise. Calling Share before handing the engine to multiple
// goroutines switches it into shared mode, where every public method takes
// an internal mutex. Event callbacks always fire with the lock released,
// so a callback may freely call At/After/Every/Now/Cancel. Exactly one
// goroutine — the clock driver — may call Step/Run/RunUntil/RunFor/Halt;
// any number of goroutines may schedule, cancel and read the clock. This
// is what lets live HTTP handlers share the clock with the Driver that
// advances it.
package sim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Time is a point in virtual time, measured in seconds from the start of the
// simulation. Virtual time has no relation to wall-clock time; a petabyte
// transfer simulates in milliseconds of real time.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = float64

// Common durations, in seconds.
const (
	Microsecond Duration = 1e-6
	Millisecond Duration = 1e-3
	Second      Duration = 1
	Minute      Duration = 60
	Hour        Duration = 3600
	Day         Duration = 86400
	Week        Duration = 7 * 86400
)

// Forever is a sentinel time later than any reachable event.
const Forever Time = Time(math.MaxFloat64)

// String renders a Time as d/h/m/s for readable traces.
func (t Time) String() string {
	s := float64(t)
	switch {
	case s >= Day:
		return fmt.Sprintf("%.2fd", s/Day)
	case s >= Hour:
		return fmt.Sprintf("%.2fh", s/Hour)
	case s >= Minute:
		return fmt.Sprintf("%.2fm", s/Minute)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}

// slot is what a schedule's heap entry points at: the callback, the seq of
// the event the slot stands for now, and where that event is. An entry,
// run member or Handle scheduled as seq sees its event pending only while
// the slot still holds seq; once the slot moves on to a later event the
// test fails for good.
type slot struct {
	fire   func()
	seq    uint64
	state  uint32 // slotIdle, slotQueued or slotBatched; atomic wherever fireBatch may race it
	pooled bool   // drawn from the free list by At/After, not a Timer's own
}

const (
	slotIdle    uint32 = iota // fired, cancelled or never scheduled
	slotQueued                // in the heap or a run under seq
	slotBatched               // drained into the dispatch batch, not yet fired
)

// slotBlock is how many slots the free list gains each time it runs dry.
const slotBlock = 64

// holds reports whether the entry scheduled as seq on s is still live.
func (s *slot) holds(seq uint64) bool { return s.seq == seq && s.state == slotQueued }

// event is one heap entry, stored by value in the heap slice: a scheduled
// event's slot, or — when s is nil — the head of a run, whose events wait
// in e.runs[seq] (see "Run coalescing").
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among equal timestamps; a run's first seq
	s   *slot
}

// run holds the events of one coalesced heap entry in seq order.
// members[:next] are gone already: taken by Step or reaped as tombstones.
type run struct {
	members []runMember
	next    int
}

type runMember struct {
	seq uint64
	s   *slot
}

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is inert: Cancel is a no-op. A Handle names its event by slot and
// seq, so every copy of it cancels the same event, and once that event has
// fired or been cancelled no copy can reach the event that later takes the
// recycled slot.
type Handle struct {
	e   *Engine
	s   *slot
	seq uint64
}

// Cancel prevents the event from firing; its heap entry is reclaimed when
// it reaches the top, or sooner by compaction. Safe to call multiple times,
// from any goroutine in shared mode, and after the event has fired (then it
// is a no-op).
func (h *Handle) Cancel() {
	if h.e == nil {
		return
	}
	h.e.lock()
	defer h.e.unlock()
	h.e.cancel(h.s, h.seq)
}

// Engine is the discrete-event scheduler. The zero value is not usable; use
// NewEngine.
type Engine struct {
	// lockOn enables the internal mutex (see Share). It is written once,
	// before any concurrent use, so the unsynchronized read in lock() is
	// ordered by the goroutine creation that follows Share().
	lockOn bool
	mu     sync.Mutex

	now Time
	// queue is a 4-ary min-heap ordered by (at, seq): children of node i
	// live at 4i+1..4i+4.
	queue []event
	// queued counts the events in queue and runs, tombstones included;
	// dead counts the tombstones.
	queued, dead int
	// free holds the idle pooled slots At and After draw from.
	free []*slot
	// runs maps a run head's seq to its members; freeRuns pools emptied ones.
	runs     map[uint64]*run
	freeRuns []*run
	// tail is the heap index of the entry the most recent schedule created,
	// or -1 once anything but a push has moved heap entries; tailRun is its
	// run while that entry is a run head.
	tail    int
	tailRun *run
	seq     uint64
	rng     *RNG
	halted  bool

	// fired counts executed events. It is atomic because the batched run
	// loop increments it with the lock released, right before each
	// callback fires.
	fired atomic.Uint64

	// batch is the current same-tick dispatch batch: the slots of events
	// popped from the queue in one lock acquisition, fired unlocked in seq
	// order. The slice is owned and resized only by the clock-driving
	// goroutine (always under the engine lock); an entry is still to fire
	// while its slot is slotBatched, so Pending can count the unfired
	// remainder from any goroutine through the atomic state words alone.
	// Its pooled slots return to the free list when the next batch is
	// taken.
	batch []*slot
}

// NewEngine returns an engine with its clock at zero and a deterministic RNG
// seeded with seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed), tail: -1}
}

// Share switches the engine into shared (locked) mode. It must be called
// before the engine becomes reachable from more than one goroutine; the
// goroutines started afterwards observe the flag through the usual
// happens-before of goroutine creation. There is no way back to lock-free
// mode. Calling Share more than once is harmless.
func (e *Engine) Share() { e.lockOn = true }

func (e *Engine) lock() {
	if e.lockOn {
		e.mu.Lock()
	}
}

func (e *Engine) unlock() {
	if e.lockOn {
		e.mu.Unlock()
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time {
	e.lock()
	defer e.unlock()
	return e.now
}

// RNG returns the engine's deterministic random source. The RNG is NOT
// protected by shared mode; only single-threaded scenario code that owns
// the engine may use it directly. Concurrent callers — HTTP handlers,
// callbacks racing a clock driver — must draw through the locked
// RandFloat64 instead.
func (e *Engine) RNG() *RNG { return e.rng }

// RandFloat64 draws a uniform value in [0, 1) from the engine RNG under
// the engine lock — the shared-mode-safe surface. Draw order is still
// deterministic per engine: in shared mode it is serialized by the lock,
// and sharded deployments keep determinism by giving every shard (and so
// every entity) its own engine stream.
func (e *Engine) RandFloat64() float64 {
	e.lock()
	defer e.unlock()
	return e.rng.Float64()
}

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired.Load() }

// Pending returns the number of live (non-cancelled) events still queued
// — events, not heap entries: every member of a coalesced run counts —
// including events drained into the current dispatch batch but not yet
// fired. The count is exact: a Cancel after the event fired leaves nothing
// behind.
func (e *Engine) Pending() int {
	e.lock()
	defer e.unlock()
	n := e.queued - e.dead
	for _, s := range e.batch {
		if atomic.LoadUint32(&s.state) == slotBatched {
			n++
		}
	}
	return n
}

// At schedules fire to run at absolute time t. Scheduling in the past (t <
// Now) panics: that is always a logic bug in a discrete-event model.
func (e *Engine) At(t Time, fire func()) Handle {
	e.lock()
	defer e.unlock()
	return e.at(t, fire)
}

// at is At with the lock already held: it draws a slot from the free list
// for fire.
func (e *Engine) at(t Time, fire func()) Handle {
	if fire == nil {
		panic("sim: nil callback")
	}
	if len(e.free) == 0 {
		block := make([]slot, slotBlock)
		for i := range block {
			block[i].pooled = true
			e.free = append(e.free, &block[i])
		}
	}
	s := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	s.fire = fire
	return Handle{e: e, s: s, seq: e.schedule(t, s)}
}

// schedule queues s for time t under a fresh seq and returns the seq. A
// schedule due at exactly the instant of the entry the previous schedule
// created joins that entry's run instead of the heap. Lock held.
func (e *Engine) schedule(t Time, s *slot) uint64 {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: at=%v now=%v", t, e.now))
	}
	seq := e.seq
	e.seq++
	e.queued++
	s.seq, s.state = seq, slotQueued
	if e.tail < 0 || e.queue[e.tail].at != t {
		e.push(event{at: t, seq: seq, s: s})
		return seq
	}
	if head := &e.queue[e.tail]; head.s != nil {
		// Second event of the instant: the entry becomes a run head.
		var r *run
		if n := len(e.freeRuns); n > 0 {
			r, e.freeRuns = e.freeRuns[n-1], e.freeRuns[:n-1]
		} else {
			r = &run{}
		}
		r.members = append(r.members, runMember{head.seq, head.s})
		if e.runs == nil {
			e.runs = make(map[uint64]*run)
		}
		e.runs[head.seq] = r
		head.s, e.tailRun = nil, r
	}
	e.tailRun.members = append(e.tailRun.members, runMember{seq, s})
	return seq
}

// release returns a pooled slot to the free list, dropping its closure.
func (e *Engine) release(s *slot) {
	if s.pooled {
		s.fire = nil
		e.free = append(e.free, s)
	}
}

// dropRun forgets the run of the heap entry keyed seq, releasing its
// slot pointers and pooling its slice.
func (e *Engine) dropRun(seq uint64, r *run) {
	delete(e.runs, seq)
	clear(r.members)
	r.members, r.next = r.members[:0], 0
	e.freeRuns = append(e.freeRuns, r)
}

// After schedules fire to run d seconds from now. Negative d panics.
func (e *Engine) After(d Duration, fire func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.lock()
	defer e.unlock()
	return e.at(e.now+Time(d), fire)
}

// Every schedules fire to run every period seconds, starting one period from
// now, until the returned Ticker is stopped or the engine halts.
func (e *Engine) Every(period Duration, fire func()) *Ticker {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	tk := &Ticker{engine: e, period: period, fire: fire}
	tk.schedule()
	return tk
}

// Ticker is a repeating event created by Every. Its own mutex (not the
// engine's) makes Stop safe to call from any goroutine while the tick
// callback fires on the clock-driving one.
type Ticker struct {
	engine *Engine
	period Duration
	fire   func()

	mu      sync.Mutex
	handle  Handle
	stopped bool
}

func (tk *Ticker) schedule() {
	h := tk.engine.After(tk.period, tk.tick)
	tk.mu.Lock()
	tk.handle = h
	tk.mu.Unlock()
}

func (tk *Ticker) tick() {
	tk.mu.Lock()
	stopped := tk.stopped
	tk.mu.Unlock()
	if stopped {
		return
	}
	tk.fire()
	tk.mu.Lock()
	stopped = tk.stopped
	tk.mu.Unlock()
	if !stopped {
		tk.schedule()
	}
}

// Stop cancels future ticks.
func (tk *Ticker) Stop() {
	tk.mu.Lock()
	tk.stopped = true
	h := tk.handle
	tk.mu.Unlock()
	h.Cancel()
}

// Halt stops the run loop after the current event returns. Only the
// clock-driving goroutine (or a callback it is firing) may call it.
func (e *Engine) Halt() { e.halted = true }

// takeNext pops the earliest live event with timestamp ≤ deadline, advances
// the clock to it, and returns its callback — which the caller must invoke
// with the lock released, so the callback can schedule and cancel freely.
// It returns nil when no live event is due by deadline; with clamp set it
// then also advances the clock to the deadline, atomically with the
// emptiness check. The atomicity matters in shared mode: if the clamp
// happened after the lock was dropped, a concurrent After could slip an
// event in below the deadline and the clamp would strand it in the past.
func (e *Engine) takeNext(deadline Time, clamp bool) func() {
	e.lock()
	defer e.unlock()
	top, r := e.liveTop()
	if top == nil || top.at > deadline {
		if clamp && e.now < deadline {
			e.now = deadline
		}
		return nil
	}
	if top.at < e.now {
		panic("sim: event queue time went backwards")
	}
	e.now = top.at
	s := top.s
	if r != nil {
		// One event off the run; the rest stay, keyed by its first seq.
		s = r.members[r.next].s
		r.next++
	}
	if r == nil || r.next == len(r.members) {
		e.pop()
	}
	e.queued--
	fire := s.fire
	s.state = slotIdle
	e.release(s)
	e.fired.Add(1)
	return fire
}

// reap reports whether the entry scheduled as seq on s is a tombstone,
// consuming it.
func (e *Engine) reap(seq uint64, s *slot) bool {
	if s.holds(seq) {
		return false
	}
	e.dead--
	e.queued--
	return true
}

// liveTop discards tombstoned events from the front of the queue and
// returns the heap entry holding the earliest live one, or nil when none
// is queued. For a run head it also returns the run, whose
// members[next] is that event. Lock held.
func (e *Engine) liveTop() (*event, *run) {
	for len(e.queue) > 0 {
		top := &e.queue[0]
		if top.s != nil {
			if !e.reap(top.seq, top.s) {
				return top, nil
			}
		} else {
			r := e.runs[top.seq]
			for r.next < len(r.members) && e.reap(r.members[r.next].seq, r.members[r.next].s) {
				r.next++
			}
			if r.next < len(r.members) {
				return top, r
			}
		}
		e.pop()
	}
	return nil, nil
}

// takeBatch drains every live event sharing the earliest due timestamp ≤
// deadline into e.batch under a single lock acquisition, advancing the
// clock to that timestamp, and returns the batch size. It returns 0 when
// no live event is due by deadline; with clamp set it then also advances
// the clock to the deadline, atomically with the emptiness check (see
// takeNext for why the atomicity matters in shared mode).
func (e *Engine) takeBatch(deadline Time, clamp bool) int {
	e.lock()
	defer e.unlock()
	// The previous batch has fired or been cancelled to the last entry.
	for _, s := range e.batch {
		e.release(s)
	}
	clear(e.batch)
	e.batch = e.batch[:0]
	var at Time
	for {
		top, r := e.liveTop()
		if top == nil {
			break
		}
		if len(e.batch) == 0 {
			if top.at > deadline {
				break
			}
			if top.at < e.now {
				panic("sim: event queue time went backwards")
			}
			at = top.at
		} else if top.at != at {
			break
		}
		if r == nil {
			top.s.state = slotBatched
			e.batch = append(e.batch, top.s)
			e.queued--
		} else {
			// A whole run for one sift: its members are already in seq order.
			for _, m := range r.members[r.next:] {
				if !e.reap(m.seq, m.s) {
					m.s.state = slotBatched
					e.batch = append(e.batch, m.s)
					e.queued--
				}
			}
		}
		e.pop()
	}
	if len(e.batch) == 0 {
		if clamp && e.now < deadline {
			e.now = deadline
		}
		return 0
	}
	e.now = at
	// A population re-arming into runs leaves its old heap array near empty.
	e.shrinkQueue()
	return len(e.batch)
}

// fireBatch invokes the current batch's callbacks in FIFO (seq) order with
// the lock released, skipping entries cancelled after the drain. It
// reports false when Halt stopped the batch early; the unfired remainder
// is then pushed back onto the queue.
func (e *Engine) fireBatch() bool {
	// Only this (clock-driving) goroutine resizes e.batch, so reading the
	// header unlocked is safe. The state word of a batched slot is claimed
	// by compare-and-swap from two sides: this loop, about to fire it, and
	// Cancel (or a Timer's Reset or Stop), holding the lock. Whoever wins
	// decides — a cancelled entry never fires, and cancelling an entry
	// already claimed is the documented fired-event no-op. A pooled slot
	// stays off the free list until the next batch is taken, and a Timer's
	// callback never changes, so reading fire after the claim is safe. In
	// unshared mode nothing races the claim, so plain accesses replace the
	// CAS on the hot path.
	shared := e.lockOn
	for i := 0; i < len(e.batch); i++ {
		if e.halted {
			e.requeueBatch()
			return false
		}
		s := e.batch[i]
		if shared {
			if !atomic.CompareAndSwapUint32(&s.state, slotBatched, slotIdle) {
				continue // cancelled while waiting in the batch
			}
		} else if s.state != slotBatched {
			continue
		} else {
			s.state = slotIdle
		}
		e.fired.Add(1)
		s.fire()
	}
	return true
}

// requeueBatch pushes the batch's unclaimed entries back onto the queue
// (Halt interrupted the batch before they fired) and resets the batch, so
// Pending and Cancel see them as ordinarily queued again. Their timestamps
// equal the current clock and their seqs are preserved, so dispatch order
// on resume is unchanged. Already-fired and cancelled entries are
// released. The pushes must leave no tail: these seqs are older than those
// of events the batch scheduled for this same instant, so a later schedule
// joining a requeued entry would fire ahead of them.
func (e *Engine) requeueBatch() {
	e.lock()
	defer e.unlock()
	for _, s := range e.batch {
		if s.state == slotBatched {
			s.state = slotQueued
			e.push(event{at: e.now, seq: s.seq, s: s})
			e.queued++
		} else {
			e.release(s)
		}
	}
	clear(e.batch)
	e.batch = e.batch[:0]
	e.tail = -1
}

// Step executes the single earliest pending event. It reports false when the
// queue is empty.
func (e *Engine) Step() bool {
	fire := e.takeNext(Forever, false)
	if fire == nil {
		return false
	}
	fire()
	return true
}

// Run executes events until the queue drains or Halt is called, in
// same-tick batches. It returns the final clock value.
func (e *Engine) Run() Time {
	e.halted = false
	for !e.halted {
		if e.takeBatch(Forever, false) == 0 {
			break
		}
		if !e.fireBatch() {
			break
		}
	}
	return e.Now()
}

// RunUntil executes events with timestamps ≤ deadline in same-tick
// batches, then sets the clock to deadline (if it has not passed it
// already) and returns. If Halt fires during the run, the clock stays
// where the halt occurred instead of jumping to the deadline.
func (e *Engine) RunUntil(deadline Time) Time {
	e.halted = false
	for !e.halted {
		if e.takeBatch(deadline, true) == 0 {
			break
		}
		if !e.fireBatch() {
			break
		}
	}
	return e.Now()
}

// RunFor advances the clock by d. See RunUntil.
func (e *Engine) RunFor(d Duration) Time { return e.RunUntil(e.Now() + Time(d)) }

// cancel takes the event scheduled as seq on s out of the queue if it is
// still pending, and reports whether it was. A queued event leaves its
// entry behind as a tombstone, and the heap is compacted once tombstones
// pass a quarter of it. A batched event is claimed from fireBatch by the
// run loop's own CAS: losing means the event is firing right now, the
// documented fired-event no-op. A slot that has moved on from seq belongs
// to a later event, which this cancel must not touch. Lock held.
func (e *Engine) cancel(s *slot, seq uint64) bool {
	if s.seq != seq {
		return false
	}
	switch atomic.LoadUint32(&s.state) {
	case slotQueued:
		atomic.StoreUint32(&s.state, slotIdle)
		e.release(s)
		e.dead++
		if e.dead > 64 && e.dead*4 > e.queued {
			e.compact()
		}
		return true
	case slotBatched:
		return atomic.CompareAndSwapUint32(&s.state, slotBatched, slotIdle)
	}
	return false
}

// compact rebuilds the heap without tombstones, releasing — when the live
// set is much smaller than the backing array — the slice capacity too.
// Runs are filtered in place: a run keeps its heap entry, keyed by its
// first seq, even when that member is gone (the key still sorts it before
// every later entry of its instant); a run left empty is dropped.
func (e *Engine) compact() {
	live := e.queue[:0]
	for _, ev := range e.queue {
		if ev.s != nil {
			if ev.s.holds(ev.seq) {
				live = append(live, ev)
			}
			continue
		}
		r := e.runs[ev.seq]
		kept := r.members[:0]
		for _, m := range r.members[r.next:] {
			if m.s.holds(m.seq) {
				kept = append(kept, m)
			}
		}
		clear(r.members[len(kept):])
		r.members, r.next = kept, 0
		if len(kept) == 0 {
			e.dropRun(ev.seq, r)
			continue
		}
		live = append(live, ev)
	}
	e.queued -= e.dead
	e.dead = 0
	// Zero the tail so the dropped slots are collectable.
	clear(e.queue[len(live):])
	e.queue, e.tail = live, -1
	e.shrinkQueue()
	// Every queued event may have been cancelled; (0-2)/4 truncates to 0,
	// so the loop below would sift slot 0 of an empty heap.
	if len(e.queue) == 0 {
		return
	}
	for i := (len(e.queue) - 2) / 4; i >= 0; i-- {
		e.down(i)
	}
}

// shrinkQueue hands the heap's backing array back once the entries left
// fill under a quarter of it, and drops the free list once it holds four
// times as many slots as there are queued events: the slots of a burst
// that has fired or been cancelled are garbage from then on.
func (e *Engine) shrinkQueue() {
	if cap(e.queue) > 1024 && cap(e.queue) > 4*len(e.queue) {
		e.queue = append(make([]event, 0, len(e.queue)), e.queue...)
	}
	if len(e.free) > 1024 && len(e.free) > 4*e.queued {
		e.free = nil
	}
}

// --- 4-ary value heap, ordered by (at, seq) ---

func lessEv(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push adds ev to the heap and makes it the tail.
func (e *Engine) push(ev event) {
	e.queue = append(e.queue, ev)
	e.tail = e.up(len(e.queue) - 1)
}

// pop removes the top entry — with its run, which the caller has emptied
// or copied out — and, since entries move, invalidates the tail.
func (e *Engine) pop() {
	if top := e.queue[0]; top.s == nil {
		e.dropRun(top.seq, e.runs[top.seq])
	}
	n := len(e.queue) - 1
	e.queue[0] = e.queue[n]
	e.queue[n] = event{}
	e.queue = e.queue[:n]
	if n > 1 {
		e.down(0)
	}
	e.tail = -1
}

// up and down sift by hole insertion rather than pairwise swaps: the moving
// event rides in a temporary while displaced entries shift into the hole,
// writing each slot once instead of three times per level. The element
// layout produced is identical to a swap-based sift, so heap order (and
// with it trace determinism) is unchanged. up returns where the event came
// to rest.
func (e *Engine) up(i int) int {
	ev := e.queue[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !lessEv(&ev, &e.queue[parent]) {
			break
		}
		e.queue[i] = e.queue[parent]
		i = parent
	}
	e.queue[i] = ev
	return i
}

func (e *Engine) down(i int) {
	n := len(e.queue)
	ev := e.queue[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if lessEv(&e.queue[c], &e.queue[best]) {
				best = c
			}
		}
		if !lessEv(&e.queue[best], &ev) {
			break
		}
		e.queue[i] = e.queue[best]
		i = best
	}
	e.queue[i] = ev
}
