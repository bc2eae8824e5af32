package ark

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestMintShape(t *testing.T) {
	s := NewService()
	id := s.Mint()
	if !strings.HasPrefix(id, "ark:/31807/osdc") {
		t.Fatalf("ARK = %q", id)
	}
	if !s.Valid(id) {
		t.Fatal("minted ARK not valid")
	}
}

func TestMintUnique(t *testing.T) {
	s := NewService()
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := s.Mint()
		if seen[id] {
			t.Fatalf("duplicate ARK %s", id)
		}
		seen[id] = true
	}
	if s.Minted != 1000 {
		t.Fatalf("Minted = %d", s.Minted)
	}
}

func TestValidRejectsTamperedCheckChar(t *testing.T) {
	s := NewService()
	id := s.Mint()
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
	s := NewService()
	foreign := strings.Replace(s.Mint(), "ark:/"+OSDCNAAN+"/", "ark:/12345/", 1)
	if s.Valid(foreign) {
		t.Fatalf("foreign NAAN accepted: %s", foreign)
	}
}

func TestMintedARKsAlwaysValidate(t *testing.T) {
	s := NewService()
	if err := quick.Check(func(n uint8) bool {
		return s.Valid(s.Mint())
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
