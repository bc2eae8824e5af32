package simdisk

import "osdc/internal/sim"

// Test-only surface: the paper-speed constructors and the timed streaming
// channels. Product code books capacity with Alloc/Release; transfer time
// is priced from the disk-speed constants by the transport model.

// ReadTime returns the streaming time to read n bytes, ignoring queueing.
func (d *Disk) ReadTime(n int64) sim.Duration { return float64(n*8) / d.ReadBps }

// WriteTime returns the streaming time to write n bytes, ignoring queueing.
func (d *Disk) WriteTime(n int64) sim.Duration { return float64(n*8) / d.WriteBps }

// PaperSource returns a disk with the paper's source-node speeds.
func PaperSource(e *sim.Engine, name string, capacity int64) *Disk {
	return New(e, name, PaperSourceReadBps, PaperTargetWriteBps*2, capacity)
}

// PaperTarget returns a disk with the paper's target-node speeds.
func PaperTarget(e *sim.Engine, name string, capacity int64) *Disk {
	return New(e, name, PaperSourceReadBps, PaperTargetWriteBps, capacity)
}

// Read schedules a streaming read of n bytes; done fires when it completes.
// Concurrent reads serialize behind each other at ReadBps.
func (d *Disk) Read(n int64, done func()) {
	if n < 0 {
		panic("simdisk: negative read")
	}
	now := d.engine.Now()
	start := d.readFree
	if start < now {
		start = now
	}
	end := start + sim.Time(d.ReadTime(n))
	d.readFree = end
	d.ReadOps++
	d.BytesRead += n
	d.engine.At(end, done)
}

// Write schedules a streaming write of n bytes after reserving capacity;
// done fires when it completes. Returns ErrFull without scheduling if the
// disk lacks space.
func (d *Disk) Write(n int64, done func()) error {
	if err := d.Alloc(n); err != nil {
		return err
	}
	now := d.engine.Now()
	start := d.writeFree
	if start < now {
		start = now
	}
	end := start + sim.Time(d.WriteTime(n))
	d.writeFree = end
	d.WriteOps++
	d.BytesWritten += n
	d.engine.At(end, done)
	return nil
}
