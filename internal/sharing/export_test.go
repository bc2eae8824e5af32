package sharing

// File returns the database record for path.
func (s *Store) File(path string) (*FileInfo, bool) {
	f, ok := s.files[path]
	return f, ok
}
