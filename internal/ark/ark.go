// Package ark implements the OSDC's persistent dataset-identifier service
// (paper §6.1): ARK identifiers (Archival Resource Keys) minted under a
// registered Name Assigning Authority Number (NAAN), per the ARK
// specification the paper cites.
package ark

import (
	"fmt"
	"strings"
	"sync"
)

// OSDCNAAN is the OSDC's registered Name Assigning Authority Number (the
// real OSDC NAAN).
const OSDCNAAN = "31807"

// Service mints ARKs under the OSDC's NAAN.
type Service struct {
	mu sync.Mutex

	Minted int64
}

// NewService creates the OSDC's ID service.
func NewService() *Service { return &Service{} }

// checkChar reports whether c is legal in an ARK blade (betanumeric:
// digits plus consonants, avoiding vowels to prevent words).
const betanumeric = "0123456789bcdfghjkmnpqrstvwxz"

// Mint assigns a new ARK and returns it. Names use a betanumeric blade
// with a final check character, e.g. ark:/31807/osdc0f9k2m.
func (s *Service) Mint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Minted++
	blade := encodeBlade(int(s.Minted))
	return fmt.Sprintf("ark:/%s/osdc%s%c", OSDCNAAN, blade, checkChar(blade))
}

// encodeBlade renders n in base-29 betanumeric, fixed width 6.
func encodeBlade(n int) string {
	const w = 6
	buf := make([]byte, w)
	for i := w - 1; i >= 0; i-- {
		buf[i] = betanumeric[n%len(betanumeric)]
		n /= len(betanumeric)
	}
	return string(buf)
}

// checkChar computes the NOID-style check character over the blade.
func checkChar(blade string) byte {
	sum := 0
	for i, c := range blade {
		sum += (i + 1) * strings.IndexRune(betanumeric, c)
	}
	return betanumeric[sum%len(betanumeric)]
}
