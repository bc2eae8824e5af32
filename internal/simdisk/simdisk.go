// Package simdisk models the storage hardware under the OSDC's clusters.
//
// The paper's Table 3 defines the "long distance to local ratio" (LLR)
// against measured local disk speeds: 3072 mbit/s streaming read at the
// source and 1136 mbit/s streaming write at the target. This package
// provides a bandwidth-capped streaming disk with capacity accounting; the
// distributed filesystem (internal/dfs) and the transfer benchmarks build
// on it.
package simdisk

import (
	"fmt"
	"sync/atomic"

	"osdc/internal/sim"
)

// Paper §7.2 calibration constants, bits per second.
const (
	PaperSourceReadBps  = 3072e6
	PaperTargetWriteBps = 1136e6
)

// Disk is a streaming disk with independent read and write channels, each
// serialized at its bandwidth. Operations on the same channel queue behind
// each other; reads and writes do not contend (a simplification that
// matches streaming transfer workloads, where one side only reads and the
// other only writes).
type Disk struct {
	Name     string
	ReadBps  float64 // streaming read bandwidth, bits/s
	WriteBps float64 // streaming write bandwidth, bits/s
	Capacity int64   // bytes

	engine    *sim.Engine
	used      int64
	readFree  sim.Time // when the read head finishes its current op
	writeFree sim.Time

	BytesRead    int64
	BytesWritten int64
	ReadOps      int64
	WriteOps     int64
}

// New creates a disk on the engine. Bandwidths must be positive.
func New(e *sim.Engine, name string, readBps, writeBps float64, capacity int64) *Disk {
	if readBps <= 0 || writeBps <= 0 {
		panic("simdisk: bandwidths must be positive")
	}
	if capacity <= 0 {
		panic("simdisk: capacity must be positive")
	}
	return &Disk{Name: name, ReadBps: readBps, WriteBps: writeBps, Capacity: capacity, engine: e}
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
