package ark

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestMintShape(t *testing.T) {
	s := NewService("")
	r := s.Mint(Metadata{Who: "modENCODE DCC", What: "modENCODE tracks", When: "2012", Where: "/glusterfs/pub/modencode"})
	if !strings.HasPrefix(r.ARK, "ark:/31807/osdc") {
		t.Fatalf("ARK = %q", r.ARK)
	}
	if !s.Valid(r.ARK) {
		t.Fatal("minted ARK not valid")
	}
}

func TestMintUnique(t *testing.T) {
	s := NewService("99999")
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := s.Mint(Metadata{}).ARK
		if seen[id] {
			t.Fatalf("duplicate ARK %s", id)
		}
		seen[id] = true
	}
	if s.Minted != 1000 {
		t.Fatalf("Minted = %d", s.Minted)
	}
}

func TestResolvePlain(t *testing.T) {
	s := NewService("")
	r := s.Mint(Metadata{Where: "/glusterfs/pub/1000genomes"})
	got, err := s.Resolve(r.ARK)
	if err != nil {
		t.Fatal(err)
	}
	if got != "/glusterfs/pub/1000genomes" {
		t.Fatalf("Resolve = %q", got)
	}
	if r.Resolves != 1 {
		t.Fatalf("Resolves = %d", r.Resolves)
	}
}

func TestInflectionBrief(t *testing.T) {
	s := NewService("")
	r := s.Mint(Metadata{Who: "NASA EO-1", What: "Hyperion L1", When: "2012-06", Where: "/matsu"})
	got, err := s.Resolve(r.ARK + "?")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"who: NASA EO-1", "what: Hyperion L1", "when: 2012-06"} {
		if !strings.Contains(got, want) {
			t.Fatalf("brief metadata missing %q in %q", want, got)
		}
	}
}

func TestInflectionFullIncludesExtrasAndPolicy(t *testing.T) {
	s := NewService("")
	r := s.Mint(Metadata{What: "ENCODE", Extra: map[string]string{"size": "500TB", "license": "open"}})
	got, err := s.Resolve(r.ARK + "??")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"size: 500TB", "license: open", "policy:"} {
		if !strings.Contains(got, want) {
			t.Fatalf("full metadata missing %q", want)
		}
	}
}

func TestResolveUnknown(t *testing.T) {
	s := NewService("")
	if _, err := s.Resolve("ark:/31807/osdc000000b"); err == nil {
		t.Fatal("expected ErrUnknown")
	} else if _, ok := err.(ErrUnknown); !ok {
		t.Fatalf("got %T", err)
	}
}

func TestValidRejectsTamperedCheckChar(t *testing.T) {
	s := NewService("")
	r := s.Mint(Metadata{})
	id := r.ARK
	// Flip the final (check) character to a different betanumeric.
	last := id[len(id)-1]
	var repl byte = '0'
	if last == '0' {
		repl = '1'
	}
	bad := id[:len(id)-1] + string(repl)
	if s.Valid(bad) {
		t.Fatal("tampered check character accepted")
	}
}

func TestValidRejectsForeignNAAN(t *testing.T) {
	s := NewService("31807")
	other := NewService("12345")
	r := other.Mint(Metadata{})
	if s.Valid(r.ARK) {
		t.Fatal("foreign NAAN accepted")
	}
}

func TestMintedARKsAlwaysValidate(t *testing.T) {
	s := NewService("")
	if err := quick.Check(func(n uint8) bool {
		r := s.Mint(Metadata{})
		return s.Valid(r.ARK) && s.Valid(r.ARK+"?") && s.Valid(r.ARK+"??")
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
