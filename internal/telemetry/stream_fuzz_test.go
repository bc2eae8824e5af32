package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"osdc/internal/sim"
)

// fuzzSnapshots builds a snapshot sequence from fuzz bytes. A 0xff byte
// ends a snapshot; any other byte sets one of four series (its low two
// bits) to a value its high six bits pick: 0–59 as themselves, then NaN,
// +Inf and -Inf. A series a snapshot does not set is absent from it.
func fuzzSnapshots(data []byte) []map[string]float64 {
	names := [4]string{"a_total", "b_total", `c{k="v"}`, "d"}
	snaps := []map[string]float64{{}}
	for _, b := range data {
		if b == 0xff {
			snaps = append(snaps, map[string]float64{})
			continue
		}
		v := float64(b >> 2)
		switch b >> 2 {
		case 60:
			v = math.NaN()
		case 61:
			v = math.Inf(1)
		case 62:
			v = math.Inf(-1)
		}
		snaps[len(snaps)-1][names[b&3]] = v
	}
	return snaps
}

// sseFrame is one frame as a client reads it off the wire.
type sseFrame struct {
	id    int64
	event string
	data  []string // every data: line
}

// parseSSE splits a transcript into frames at blank lines, as an
// EventSource would.
func parseSSE(t *testing.T, transcript []byte) []sseFrame {
	var frames []sseFrame
	var f sseFrame
	open := false
	sc := bufio.NewScanner(bytes.NewReader(transcript))
	for sc.Scan() {
		field, value, _ := strings.Cut(sc.Text(), ": ")
		switch field {
		case "":
			if open {
				frames = append(frames, f)
			}
			f, open = sseFrame{}, false
			continue
		case "id":
			id, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				t.Fatalf("frame id %q: %v", value, err)
			}
			f.id = id
		case "event":
			f.event = value
		case "data":
			f.data = append(f.data, value)
		default:
			t.Fatalf("unknown SSE field in line %q", sc.Text())
		}
		open = true
	}
	if open {
		t.Fatalf("transcript ends inside a frame: %+v", f)
	}
	return frames
}

// FuzzStreamFrames holds the stream to its contract over any snapshot
// sequence, NaN and ±Inf included: one frame per tick, each with exactly
// one data line that decodes; id and seq equal and rising by one; and
// changed exactly the finite series that differ from, or are missing in,
// the previous snapshot's finite part.
func FuzzStreamFrames(f *testing.F) {
	f.Add([]byte{0x04, 0xff, 0xf0, 0x09, 0xff, 0x04, 0x08}) // a NaN beside a change: the change still goes out
	f.Add([]byte{0xf4, 0xf9, 0xff, 0xf4, 0xff, 0x04})       // +Inf then -Inf, then finite again
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0xff, 0xff, 0x05})
	f.Fuzz(func(t *testing.T, data []byte) {
		snaps := fuzzSnapshots(data)
		if len(snaps) > 64 {
			t.Skip("long sequence")
		}
		next := 0
		s := NewStreamer(func() map[string]float64 {
			snap := map[string]float64{}
			for k, v := range snaps[next] {
				snap[k] = v
			}
			next++
			return snap
		})
		e := sim.NewEngine(1)
		s.Start(e, 1)
		ch, cancel := s.Subscribe(len(snaps))
		defer cancel()
		e.RunFor(sim.Duration(len(snaps)))
		s.Close()
		var transcript bytes.Buffer
		for frame := range ch {
			transcript.Write(frame)
		}

		frames := parseSSE(t, transcript.Bytes())
		if len(frames) != len(snaps) {
			t.Fatalf("%d frames for %d ticks:\n%s", len(frames), len(snaps), transcript.Bytes())
		}
		prev := map[string]float64{}
		for i, fr := range frames {
			if fr.event != "telemetry" || len(fr.data) != 1 {
				t.Fatalf("frame %d: event %q with %d data lines, want one telemetry data line", i, fr.event, len(fr.data))
			}
			var ev event
			if err := json.Unmarshal([]byte(fr.data[0]), &ev); err != nil {
				t.Fatalf("frame %d: data %q: %v", i, fr.data[0], err)
			}
			if fr.id != int64(i+1) || ev.Seq != fr.id {
				t.Fatalf("frame %d: id %d, seq %d, want both %d", i, fr.id, ev.Seq, i+1)
			}
			want := map[string]float64{}
			finite := map[string]float64{}
			for k, v := range snaps[i] {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					if _, sent := ev.Changed[k]; sent {
						t.Fatalf("frame %d: carries %s = %v, which JSON cannot", i, k, v)
					}
					continue
				}
				finite[k] = v
				if old, ok := prev[k]; !ok || old != v {
					want[k] = v
				}
			}
			if len(ev.Changed) != len(want) {
				t.Fatalf("frame %d: changed %v, want %v", i, ev.Changed, want)
			}
			for k, v := range want {
				if got, ok := ev.Changed[k]; !ok || got != v {
					t.Fatalf("frame %d: changed %v, want %v", i, ev.Changed, want)
				}
			}
			prev = finite
		}
	})
}
