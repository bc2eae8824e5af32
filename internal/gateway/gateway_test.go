package gateway

import (
	"fmt"
	"testing"

	"osdc/internal/dfs"
	"osdc/internal/sim"
	"osdc/internal/simdisk"
)

func newExport(t *testing.T) *Export {
	t.Helper()
	e := sim.NewEngine(1)
	var bricks []*dfs.Brick
	for i := 0; i < 2; i++ {
		d := simdisk.New(fmt.Sprintf("d%d", i), 1<<40)
		bricks = append(bricks, dfs.NewBrick(fmt.Sprintf("b%d", i), d))
	}
	vol, err := dfs.NewVolume(e, 1, dfs.Version33, bricks)
	if err != nil {
		t.Fatal(err)
	}
	return New(vol)
}

func TestOwnerReadWrite(t *testing.T) {
	ex := newExport(t)
	ex.Allow(ACE{Prefix: "/home/alice/", User: "alice", Mode: PermRead | PermWrite})
	if err := ex.Write("alice", "/home/alice/notes.txt", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	f, err := ex.Read("alice", "/home/alice/notes.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(f.Content) != "hi" {
		t.Fatal("content mismatch")
	}
}

func TestStrangerDenied(t *testing.T) {
	ex := newExport(t)
	ex.Allow(ACE{Prefix: "/home/alice/", User: "alice", Mode: PermRead | PermWrite})
	if err := ex.Write("alice", "/home/alice/secret", []byte("s")); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Read("mallory", "/home/alice/secret"); err == nil {
		t.Fatal("stranger read allowed")
	} else if _, ok := err.(ErrDenied); !ok {
		t.Fatalf("got %T, want ErrDenied", err)
	}
}

func TestWorldReadablePublicData(t *testing.T) {
	ex := newExport(t)
	ex.Allow(ACE{Prefix: "/public/", Mode: PermRead}) // world-readable
	ex.Allow(ACE{Prefix: "/public/", User: "curator", Mode: PermRead | PermWrite})
	if err := ex.Write("curator", "/public/1000genomes/README", []byte("open")); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Read("anyone", "/public/1000genomes/README"); err != nil {
		t.Fatalf("public read denied: %v", err)
	}
	if err := ex.Write("anyone", "/public/1000genomes/README", []byte("vandal")); err == nil {
		t.Fatal("world write allowed on read-only public data")
	}
}

func TestLongestPrefixWins(t *testing.T) {
	ex := newExport(t)
	ex.Allow(ACE{Prefix: "/data/", User: "alice", Mode: PermRead | PermWrite})
	ex.Allow(ACE{Prefix: "/data/restricted/", User: "alice", Mode: 0}) // explicit deny
	if err := ex.Write("alice", "/data/ok.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := ex.Write("alice", "/data/restricted/x", []byte("x")); err == nil {
		t.Fatal("longest-prefix deny not enforced")
	}
}

func TestBadACEPrefixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newExport(t).Allow(ACE{Prefix: "relative", User: "x", Mode: PermRead})
}
