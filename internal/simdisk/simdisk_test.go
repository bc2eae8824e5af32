package simdisk

import (
	"math"
	"testing"
)

func TestWriteReservesCapacity(t *testing.T) {
	d := New("d", 1000)
	if err := d.Alloc(600); err != nil {
		t.Fatal(err)
	}
	if err := d.Alloc(600); err == nil {
		t.Fatal("expected ErrFull on second alloc")
	} else if _, ok := err.(ErrFull); !ok {
		t.Fatalf("error type %T, want ErrFull", err)
	}
	if d.Used() != 600 {
		t.Fatalf("used = %d, want 600", d.Used())
	}
	d.Release(600)
	if d.Free() != 1000 {
		t.Fatalf("free = %d after release, want 1000", d.Free())
	}
}

func TestPaperConstants(t *testing.T) {
	if PaperSourceReadBps != 3072e6 {
		t.Fatalf("source read = %v, want 3072 mbit/s", float64(PaperSourceReadBps))
	}
	if PaperTargetWriteBps != 1136e6 {
		t.Fatalf("target write = %v, want 1136 mbit/s", float64(PaperTargetWriteBps))
	}
	// LLR denominator from the paper: min(3072, 1136) = 1136.
	if m := math.Min(PaperSourceReadBps, PaperTargetWriteBps); m != 1136e6 {
		t.Fatalf("LLR denominator = %v, want 1136e6", m)
	}
}

func TestUtilization(t *testing.T) {
	d := New("d", 1000)
	if err := d.Alloc(250); err != nil {
		t.Fatal(err)
	}
	if u := d.Utilization(); math.Abs(u-0.25) > 1e-12 {
		t.Fatalf("utilization = %v, want 0.25", u)
	}
}

func TestBadReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-release")
		}
	}()
	New("d", 1000).Release(1)
}
