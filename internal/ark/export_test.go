package ark

import "strings"

// Test-only surface: the check-character validator the tests hold Mint
// to.

// Valid reports whether an ARK parses, belongs to the OSDC's NAAN, and
// has a correct check character.
func (s *Service) Valid(id string) bool {
	rest, ok := strings.CutPrefix(id, "ark:/"+OSDCNAAN+"/osdc")
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
