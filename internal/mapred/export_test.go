package mapred

import "fmt"

// Test-only surface: size-only files and the byte total the accounting
// test reads.

// PutMeta stores a size-only file (petabyte-scale accounting).
func (h *HDFS) PutMeta(path string, size int64) []Block {
	var blocks []Block
	for off := int64(0); off < size; off += h.BlockSize {
		n := h.BlockSize
		if off+n > size {
			n = size - off
		}
		h.nextBlock++
		blocks = append(blocks, Block{
			ID: fmt.Sprintf("blk_%06d", h.nextBlock), Seq: len(blocks),
			Size: n, Nodes: h.place(),
		})
	}
	h.files[path] = blocks
	return blocks
}

// UsedBytes returns logical bytes stored.
func (h *HDFS) UsedBytes() int64 {
	var n int64
	for _, blocks := range h.files {
		for _, b := range blocks {
			n += b.Size
		}
	}
	return n
}
