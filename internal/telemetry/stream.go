package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"

	"osdc/internal/sim"
)

// Streamer pushes aggregated telemetry deltas to subscribers as
// Server-Sent Events. It ticks on the *simulation's* virtual clock, not
// wall time: Start arms a sim.Ticker, and each firing snapshots the
// source, diffs it against the previous snapshot, and broadcasts one SSE
// frame carrying only the changed series.
//
// Driving the stream off virtual time is what makes it testable as a
// golden: a scenario that advances the engine deterministically (frozen
// clock while requests run, fixed virtual quanta between phases) gets the
// same tick times, the same snapshots, and — because encoding/json sorts
// map keys and the frame carries no wall-clock fields — byte-identical
// event sequences on every run.
type Streamer struct {
	source func() map[string]float64
	sel    func(series string) bool // nil = stream everything

	engine *sim.Engine
	ticker *sim.Ticker

	mu     sync.Mutex
	subs   map[int]chan []byte
	nextID int
	prev   map[string]float64
	seq    int64
	closed bool
}

// NewStreamer builds a streamer over a snapshot source (typically
// Registry.Snapshot, Collector.Snapshot, or a merge of both).
func NewStreamer(source func() map[string]float64) *Streamer {
	return &Streamer{source: source, subs: make(map[int]chan []byte), prev: map[string]float64{}}
}

// SetSelect filters which series the stream carries. A scenario pins the
// stream as a golden by selecting only series that are deterministic
// functions of virtual time (counters, engine state) and dropping
// wall-clock measurements (request latency histograms).
func (s *Streamer) SetSelect(fn func(series string) bool) { s.sel = fn }

// Start arms the stream's ticker on e: one frame every period of virtual
// time, for as long as the engine keeps advancing.
func (s *Streamer) Start(e *sim.Engine, period sim.Duration) {
	s.engine = e
	s.ticker = e.Every(period, s.tick)
}

// event is the SSE data payload: the virtual timestamp, the frame
// sequence number, and every series whose value changed since the last
// frame (absolute values, not diffs — a late joiner can trust any frame).
type event struct {
	T       float64            `json:"t"`
	Seq     int64              `json:"seq"`
	Changed map[string]float64 `json:"changed"`
}

// tick builds and broadcasts one frame. Runs inside an engine callback
// (the engine fires callbacks with its lock released, so the source may
// read engine state).
func (s *Streamer) tick() {
	snap := s.source()
	if s.sel != nil {
		for k := range snap {
			if !s.sel(k) {
				delete(snap, k)
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	changed := make(map[string]float64)
	for k, v := range snap {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON cannot carry it: withheld, and dropped from prev, so it
			// is sent again once finite; the frame still carries every
			// other change.
			delete(snap, k)
			continue
		}
		if old, ok := s.prev[k]; !ok || old != v {
			changed[k] = v
		}
	}
	data, err := json.Marshal(event{T: float64(s.engine.Now()), Seq: s.seq + 1, Changed: changed})
	if err != nil {
		panic("telemetry: stream frame: " + err.Error()) // every value is finite
	}
	s.prev = snap
	s.seq++
	frame := []byte(fmt.Sprintf("id: %d\nevent: telemetry\ndata: %s\n\n", s.seq, data))
	// A tick fires inside an engine callback and must never block on a
	// slow reader: a frame a full buffer cannot take is dropped.
	for _, ch := range s.subs {
		select {
		case ch <- frame:
		default:
		}
	}
}

// Subscribe returns a frame channel (buffered to buffer, floored at 16)
// and a cancel function. The channel closes when the streamer closes.
func (s *Streamer) Subscribe(buffer int) (<-chan []byte, func()) {
	if buffer < 16 {
		buffer = 16
	}
	ch := make(chan []byte, buffer)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		close(ch)
		return ch, func() {}
	}
	id := s.nextID
	s.nextID++
	s.subs[id] = ch
	return ch, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.subs[id]; ok {
			delete(s.subs, id)
			close(ch)
		}
	}
}

// Close stops the ticker and closes every subscriber channel, ending
// their streams. Idempotent.
func (s *Streamer) Close() {
	if s.ticker != nil {
		s.ticker.Stop()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for id, ch := range s.subs {
		delete(s.subs, id)
		close(ch)
	}
}

// ServeStream writes frames to w as an SSE response until the stream
// closes or the client goes away. The console mounts it at
// GET /console/stream behind its session chain.
func (s *Streamer) ServeStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	ch, cancel := s.Subscribe(256)
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case frame, open := <-ch:
			if !open {
				return
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
