package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"osdc/internal/sim"
)

// runStream drives one deterministic stream session: a counter bumped
// between fixed virtual advances, three ticks per advance, and returns
// the concatenated frames a subscriber saw.
func runStream(t *testing.T) []byte {
	t.Helper()
	e := sim.NewEngine(42)
	reg := NewRegistry()
	c := reg.Counter("osdc_work_total", "work", Label{"kind", "launch"})
	s := NewStreamer(reg.Snapshot)
	s.Start(e, 10)
	ch, cancel := s.Subscribe(64)
	defer cancel()

	c.Add(2)
	e.RunFor(30) // ticks at t=10,20,30
	c.Inc()
	e.RunFor(30) // ticks at t=40,50,60
	s.Close()

	var buf bytes.Buffer
	for frame := range ch {
		buf.Write(frame)
	}
	return buf.Bytes()
}

func TestStreamFramesAreDeterministic(t *testing.T) {
	first := runStream(t)
	second := runStream(t)
	if !bytes.Equal(first, second) {
		t.Fatalf("two identical sessions produced different streams:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	got := string(first)
	// Frame 1 carries the initial value; frames 2-3 are unchanged (empty
	// delta); frame 4 carries the bump.
	for _, want := range []string{
		"id: 1\nevent: telemetry\ndata: {\"t\":10,\"seq\":1,\"changed\":{\"osdc_work_total{kind=\\\"launch\\\"}\":2}}\n\n",
		"id: 2\nevent: telemetry\ndata: {\"t\":20,\"seq\":2,\"changed\":{}}\n\n",
		"id: 4\nevent: telemetry\ndata: {\"t\":40,\"seq\":4,\"changed\":{\"osdc_work_total{kind=\\\"launch\\\"}\":3}}\n\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("stream missing frame %q\n--- got ---\n%s", want, got)
		}
	}
	if n := strings.Count(got, "event: telemetry"); n != 6 {
		t.Errorf("stream carried %d frames, want 6", n)
	}
}

func TestStreamSelectFilters(t *testing.T) {
	e := sim.NewEngine(1)
	reg := NewRegistry()
	reg.Counter("keep_total", "k").Inc()
	reg.Counter("drop_total", "d").Inc()
	s := NewStreamer(reg.Snapshot)
	s.SetSelect(func(series string) bool { return !strings.HasPrefix(series, "drop_") })
	s.Start(e, 5)
	ch, cancel := s.Subscribe(16)
	defer cancel()
	e.RunFor(5)
	s.Close()
	var buf bytes.Buffer
	for frame := range ch {
		buf.Write(frame)
	}
	if strings.Contains(buf.String(), "drop_total") {
		t.Fatalf("filtered series leaked into stream:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "keep_total") {
		t.Fatalf("kept series missing from stream:\n%s", buf.String())
	}
}

// TestStreamNeverBlocksEngine pins the no-backpressure contract: a
// subscriber that never reads cannot stall ticks; overflow frames are
// dropped, not waited on.
func TestStreamNeverBlocksEngine(t *testing.T) {
	e := sim.NewEngine(1)
	reg := NewRegistry()
	c := reg.Counter("x_total", "x")
	s := NewStreamer(reg.Snapshot)
	s.Start(e, 1)
	ch, cancel := s.Subscribe(16) // never read
	defer cancel()
	for i := 0; i < 100; i++ {
		c.Inc()
		e.RunFor(1)
	}
	if len(ch) != 16 {
		t.Fatalf("the unread subscriber holds %d frames after 100 ticks, want its 16", len(ch))
	}
}

func TestSubscribeAfterCloseGetsClosedChannel(t *testing.T) {
	s := NewStreamer(func() map[string]float64 { return nil })
	s.Close()
	ch, cancel := s.Subscribe(16)
	defer cancel()
	if _, open := <-ch; open {
		t.Fatal("subscription on a closed streamer delivered a frame")
	}
}
