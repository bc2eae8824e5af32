// Package simdisk models the storage hardware under the OSDC's clusters.
//
// The paper's Table 3 defines the "long distance to local ratio" (LLR)
// against measured local disk speeds: 3072 mbit/s streaming read at the
// source and 1136 mbit/s streaming write at the target. This package
// holds those constants, which the transfer model prices disk time from,
// and a disk with capacity accounting that the distributed filesystem
// (internal/dfs) books its bricks on.
package simdisk

import (
	"fmt"
	"sync/atomic"
)

// Paper §7.2 calibration constants, bits per second.
const (
	PaperSourceReadBps  = 3072e6
	PaperTargetWriteBps = 1136e6
)

// Disk is a disk's capacity: bytes are booked with Alloc and returned
// with Release.
type Disk struct {
	Name     string
	Capacity int64 // bytes

	used int64
}

// New creates a disk. Capacity must be positive.
func New(name string, capacity int64) *Disk {
	if capacity <= 0 {
		panic("simdisk: capacity must be positive")
	}
	return &Disk{Name: name, Capacity: capacity}
}

// Used returns the bytes currently allocated.
func (d *Disk) Used() int64 { return atomic.LoadInt64(&d.used) }

// Free returns the bytes available.
func (d *Disk) Free() int64 { return d.Capacity - d.Used() }

// Utilization returns used/capacity in [0,1].
func (d *Disk) Utilization() float64 { return float64(d.Used()) / float64(d.Capacity) }

// ErrFull is returned when an allocation exceeds the remaining capacity.
type ErrFull struct {
	Disk      string
	Requested int64
	Free      int64
}

func (e ErrFull) Error() string {
	return fmt.Sprintf("simdisk: %s full: requested %d bytes, %d free", e.Disk, e.Requested, e.Free)
}

// Alloc reserves n bytes of capacity immediately (no I/O time). Capacity
// accounting is atomic: the dataset stores allocate from service
// goroutines while monitoring checks read Utilization on the engine.
func (d *Disk) Alloc(n int64) error {
	if n < 0 {
		panic("simdisk: negative allocation")
	}
	for {
		used := atomic.LoadInt64(&d.used)
		if used+n > d.Capacity {
			return ErrFull{Disk: d.Name, Requested: n, Free: d.Capacity - used}
		}
		if atomic.CompareAndSwapInt64(&d.used, used, used+n) {
			return nil
		}
	}
}

// Release frees n bytes of capacity.
func (d *Disk) Release(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("simdisk: bad release of %d", n))
	}
	if used := atomic.AddInt64(&d.used, -n); used < 0 {
		panic(fmt.Sprintf("simdisk: release of %d under-ran the allocation", n))
	}
}
