package udr

// TotalBytes sums all file sizes.
func (fs FileSet) TotalBytes() int64 {
	var n int64
	for _, b := range fs {
		n += int64(len(b))
	}
	return n
}
