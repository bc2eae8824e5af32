package ark

import (
	"sort"
	"strings"
)

// Test-only surface: the check-character validator the tests hold Mint
// to, and the rebind and listing calls no product path makes.

// Valid reports whether an ARK parses, belongs to this NAAN, and has a
// correct check character.
func (s *Service) Valid(id string) bool {
	base, _ := splitInflection(id)
	rest, ok := strings.CutPrefix(base, "ark:/"+s.NAAN+"/osdc")
	if !ok || len(rest) != 7 {
		return false
	}
	blade, check := rest[:6], rest[6]
	for _, c := range blade {
		if !strings.ContainsRune(betanumeric, c) {
			return false
		}
	}
	return checkChar(blade) == check
}

// Update rebinds metadata (e.g. when a dataset moves volumes); the
// identifier itself is permanent.
func (s *Service) Update(id string, meta Metadata) error {
	base, _ := splitInflection(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.byID[base]
	if !ok {
		return ErrUnknown{ID: base}
	}
	if meta.Extra == nil {
		meta.Extra = rec.Meta.Extra
	}
	rec.Meta = meta
	return nil
}

// All returns every minted record sorted by ARK.
func (s *Service) All() []*Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Record, 0, len(s.byID))
	for _, r := range s.byID {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ARK < out[j].ARK })
	return out
}
