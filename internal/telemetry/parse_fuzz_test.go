package telemetry

import (
	"encoding/binary"
	"math"
	"strconv"
	"testing"
)

// fuzzRegistry builds a registry from fuzz bytes. Each entry picks a kind
// (counter, gauge or histogram) and one of four names per kind, up to two
// labels whose values are raw input bytes — spaces, quotes, '=', ',',
// backslashes and newlines all reach the renderer — and a value to record.
func fuzzRegistry(data []byte) *Registry {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	take := func(n int) []byte {
		n = min(n, len(data))
		out := data[:n]
		data = data[n:]
		return out
	}
	reg := NewRegistry()
	gauges := map[string]*float64{} // a gauge series reads its last set value
	for len(data) > 0 {
		op := next()
		var labels []Label
		for i := 0; i < int(op>>4)%3; i++ {
			key := []string{"a", "b", "zone"}[next()%3]
			labels = append(labels, Label{Key: key, Value: string(take(int(next() % 16)))})
		}
		var bits [8]byte
		copy(bits[:], take(8))
		v := math.Float64frombits(binary.LittleEndian.Uint64(bits[:]))
		n := strconv.Itoa(int(op>>2) % 4)
		switch op % 3 {
		case 0:
			reg.Counter("fuzz_c"+n+"_total", "Fuzzed counter.", labels...).Add(int64(bits[0]))
		case 1:
			key := "fuzz_g" + n + labelBlock(labels, "")
			g := gauges[key]
			if g == nil {
				g = new(float64)
				gauges[key] = g
				reg.GaugeFunc("fuzz_g"+n, "Fuzzed gauge.", func() float64 { return *g }, labels...)
			}
			*g = v
		case 2:
			reg.Histogram("fuzz_h"+n, "Fuzzed histogram.", []float64{0.5, 1, 2.5}, labels...).Observe(v)
		}
	}
	return reg
}

// FuzzParseTextRoundTrip holds ParseText — the path the Collector folds
// every member scrape through — to the registry that rendered the text:
// ParseText(Render()) equals Snapshot() key for key, whatever the label
// values and recorded values (NaN and ±Inf included).
func FuzzParseTextRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x10\x00\x09a b=\"c\",\n\\\x00\x00\x00\x00\x00\x00\xf0\x3f"))
	f.Add([]byte("\x21\x01\x04 = ,\x02\x03\"\"\"\x00\x00\x00\x00\x00\x00\xf0\x7f"))
	f.Add([]byte("\x12\x02\x05le=\"1\x00\x00\x00\x00\x00\x00\xf8\x7f\x22\x00\x02{}\x01\x03#\t\r"))
	f.Fuzz(func(t *testing.T, data []byte) {
		reg := fuzzRegistry(data)
		want := reg.Snapshot()
		text := reg.Render()
		got, err := ParseText(text)
		if err != nil {
			t.Fatalf("ParseText(Render()): %v\n%s", err, text)
		}
		if len(got) != len(want) {
			t.Fatalf("parsed %d series, snapshot has %d\n%s", len(got), len(want), text)
		}
		for k, w := range want {
			g, ok := got[k]
			if !ok {
				t.Fatalf("parse lost series %q\n%s", k, text)
			}
			if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("%q: parsed %v, snapshot %v", k, g, w)
			}
		}
	})
}
