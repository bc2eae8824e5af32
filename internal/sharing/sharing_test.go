package sharing

import (
	"testing"

	"osdc/internal/sim"
)

func newStore(t *testing.T, users ...string) (*sim.Engine, *Store) {
	t.Helper()
	e := sim.NewEngine(8)
	s := NewStore()
	for _, u := range users {
		s.AddUser(u)
	}
	return e, s
}

func dropNow(e *sim.Engine, d *DropDir, owner, path string, content []byte) {
	d.Drop(owner, path, content)
	e.RunFor(20) // past a scan tick
}

func TestDropDaemonPropagatesOnTick(t *testing.T) {
	e, s := newStore(t, "alice")
	d := NewDropDir(e, s, 10)
	d.Drop("alice", "/share/alice/data.csv", []byte("1,2,3"))
	if _, ok := s.File("/share/alice/data.csv"); ok {
		t.Fatal("file visible before daemon scan")
	}
	e.RunFor(11)
	f, ok := s.File("/share/alice/data.csv")
	if !ok {
		t.Fatal("file not propagated after scan")
	}
	if f.Owner != "alice" || f.Size != 5 {
		t.Fatalf("record = %+v", f)
	}
	if d.Propagated != 1 {
		t.Fatalf("Propagated = %d", d.Propagated)
	}
}

func TestOwnerAlwaysReads(t *testing.T) {
	e, s := newStore(t, "alice", "bob")
	d := NewDropDir(e, s, 10)
	dropNow(e, d, "alice", "/share/a", []byte("x"))
	if !s.CanRead("alice", "/share/a") {
		t.Fatal("owner cannot read own file")
	}
	if s.CanRead("bob", "/share/a") {
		t.Fatal("unshared file readable by stranger")
	}
}

func TestCollectionGrantToUser(t *testing.T) {
	e, s := newStore(t, "alice", "bob")
	d := NewDropDir(e, s, 10)
	dropNow(e, d, "alice", "/share/genome.vcf", []byte("v"))
	coll, err := s.NewCollection("alice", "t2d-release")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddFileToCollection("alice", coll.ID, "/share/genome.vcf"); err != nil {
		t.Fatal(err)
	}
	if err := s.Grant("alice", coll.ID, "user:bob", PermRead); err != nil {
		t.Fatal(err)
	}
	if !s.CanRead("bob", "/share/genome.vcf") {
		t.Fatal("grantee cannot read")
	}
	if err := s.Grant("alice", coll.ID, "group:consortium", PermRead); err == nil {
		t.Fatal("group principal accepted")
	}
}

func TestOnlyOwnerGrants(t *testing.T) {
	_, s := newStore(t, "alice", "mallory")
	coll, _ := s.NewCollection("alice", "c")
	if err := s.Grant("mallory", coll.ID, "user:mallory", PermWrite); err == nil {
		t.Fatal("non-owner granted permissions")
	}
}
