package udr

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzDeltaRoundTrip holds the rsync delta plane to its contract for any
// pair of files and any block size: applying the delta of cur against old's
// signatures to old rebuilds cur exactly, and the literals never outweigh
// cur. The block size is clamped to 1..4096, so the blockSize <= 0 panic
// is out of domain.
func FuzzDeltaRoundTrip(f *testing.F) {
	fox := []byte(strings.Repeat("the quick brown fox ", 8))
	for _, seed := range []struct {
		old, cur []byte
		bs       uint16
	}{
		{[]byte{}, []byte("fresh file, nothing to copy"), 6},        // empty old
		{[]byte("hello world"), []byte{}, 2},                        // empty cur
		{fox, fox, 15},                                              // old == cur
		{[]byte("abcabcabc"), []byte("cabbacabc"), 0},               // block size 1
		{[]byte("short"), []byte("short and then some"), 99},        // block larger than old
		{[]byte("AAAABBBBxy"), []byte("AAAAxyBBBBxy"), 3},           // old's short tail block mid-cur
		{[]byte("0123456789abcdef"), []byte("0123456789abcdXf"), 3}, // edit inside the last full block
		{[]byte{1, 2, 1, 9, 9, 9}, []byte{2, 0, 2, 9, 9, 9}, 2},     // equal weak sums, different content
	} {
		f.Add(seed.old, seed.cur, seed.bs)
	}
	f.Fuzz(func(t *testing.T, old, cur []byte, bs uint16) {
		b := 1 + int(bs%4096)
		d := ComputeDelta(Signatures(old, b), b, cur)
		got, err := Apply(old, d)
		if err != nil {
			t.Fatalf("block %d: Apply: %v", b, err)
		}
		if !bytes.Equal(got, cur) {
			t.Fatalf("block %d: rebuilt %q, want %q", b, got, cur)
		}
		if lit := d.LiteralBytes(); lit > int64(len(cur)) {
			t.Fatalf("block %d: %d literal bytes for a %d-byte file", b, lit, len(cur))
		}
	})
}
