// Package ark implements the OSDC's persistent dataset-identifier service
// (paper §6.1): ARK identifiers (Archival Resource Keys) minted under a
// registered Name Assigning Authority Number (NAAN), with resolution and
// metadata via ARK "inflections" — appending '?' for brief metadata and
// '??' for full policy/metadata, per the ARK specification the paper cites.
package ark

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// OSDCNAAN is the OSDC's registered Name Assigning Authority Number. (The
// real OSDC NAAN; any 5-digit NAAN works with the service.)
const OSDCNAAN = "31807"

// Metadata is the descriptive record bound to an identifier (ERC-style
// who/what/when plus free-form pairs).
type Metadata struct {
	Who   string // responsible party
	What  string // dataset title
	When  string // relevant date
	Where string // current access location (target of resolution)
	Extra map[string]string
}

// Record is one minted identifier.
type Record struct {
	ARK      string
	Meta     Metadata
	Resolves int64 // access count
}

// Service mints and resolves ARKs for one NAAN.
type Service struct {
	NAAN string
	mu   sync.Mutex
	next int
	byID map[string]*Record

	Minted int64
}

// NewService creates an ID service for a NAAN. An empty NAAN uses the
// OSDC's.
func NewService(naan string) *Service {
	if naan == "" {
		naan = OSDCNAAN
	}
	return &Service{NAAN: naan, byID: make(map[string]*Record)}
}

// checkChar reports whether c is legal in an ARK blade (betanumeric:
// digits plus consonants, avoiding vowels to prevent words).
const betanumeric = "0123456789bcdfghjkmnpqrstvwxz"

// Mint assigns a new ARK with the given metadata and returns it. Names use
// a betanumeric blade with a final check character, e.g.
// ark:/31807/osdc0f9k2m.
func (s *Service) Mint(meta Metadata) *Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	blade := encodeBlade(s.next)
	id := fmt.Sprintf("ark:/%s/osdc%s%c", s.NAAN, blade, checkChar(blade))
	rec := &Record{ARK: id, Meta: meta}
	if rec.Meta.Extra == nil {
		rec.Meta.Extra = map[string]string{}
	}
	s.byID[id] = rec
	s.Minted++
	return rec
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

// splitInflection separates a trailing '?' or '??' from the base ARK.
func splitInflection(id string) (base, inflection string) {
	switch {
	case strings.HasSuffix(id, "??"):
		return id[:len(id)-2], "??"
	case strings.HasSuffix(id, "?"):
		return id[:len(id)-1], "?"
	default:
		return id, ""
	}
}

// ErrUnknown reports an unminted or foreign identifier.
type ErrUnknown struct{ ID string }

func (e ErrUnknown) Error() string { return "ark: unknown identifier " + e.ID }

// Resolve handles a dereference request. Without an inflection it returns
// the access location; with '?' a brief ERC metadata record; with '??' the
// full metadata including extras.
func (s *Service) Resolve(id string) (string, error) {
	base, inflection := splitInflection(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.byID[base]
	if !ok {
		return "", ErrUnknown{ID: base}
	}
	rec.Resolves++
	switch inflection {
	case "":
		return rec.Meta.Where, nil
	case "?":
		return fmt.Sprintf("erc:\nwho: %s\nwhat: %s\nwhen: %s\nwhere: %s\n",
			rec.Meta.Who, rec.Meta.What, rec.Meta.When, rec.Meta.Where), nil
	default: // "??"
		var b strings.Builder
		fmt.Fprintf(&b, "erc:\nwho: %s\nwhat: %s\nwhen: %s\nwhere: %s\n",
			rec.Meta.Who, rec.Meta.What, rec.Meta.When, rec.Meta.Where)
		keys := make([]string, 0, len(rec.Meta.Extra))
		for k := range rec.Meta.Extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s: %s\n", k, rec.Meta.Extra[k])
		}
		b.WriteString("policy: OSDC persistent identifier; content replicated across OSDC data centers\n")
		return b.String(), nil
	}
}
