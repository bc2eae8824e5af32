package cloudapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"osdc/internal/datastore"
	"osdc/internal/iaas"
	"osdc/internal/sim"
)

// The datasets delta protocol's oracle: for every revision R a client has
// held, the snapshot it held at R with ListSince(R) applied must equal the
// store's List() now, and Local and Remote must hand back the same Delta.

// Fuzz operations on one store: each is a (kind, arg) byte pair.
const (
	dsPut     = iota // arg: dataset (low 2 bits), backend (bit 2), size (rest)
	dsReplace        // arg: dataset, backend — bumps a held dataset's version
	dsDelete         // arg: dataset, backend
	dsAdopt          // arg: dataset, size — Local only; the wire has no adopt
	dsObserve        // arg: client — one ListSince from its held revision
	dsCheck          // every held revision, plus R = 0 and R ahead of the store
	dsRestart        // a fresh store behind the same URL, then every client observes
	dsNumOps
)

var dsNames = []string{"A Set", "B Set", "C Set", "D Set"}

// dsOp encodes one operation.
func dsOp(kind, arg byte) []byte { return []byte{kind, arg} }

// heldSnapshot is what a client carries between polls: a revision and the
// replicas it had assembled at that revision.
type heldSnapshot struct {
	rev  int64
	reps map[string]datastore.Replica
}

// apply returns h advanced by d, the way a client folds a delta in.
func (h heldSnapshot) apply(d datastore.Delta) heldSnapshot {
	next := heldSnapshot{rev: d.Rev, reps: map[string]datastore.Replica{}}
	if !d.Reset {
		for k, v := range h.reps {
			next.reps[k] = v
		}
	}
	for _, r := range d.Changed {
		next.reps[r.Dataset] = r
	}
	for _, name := range d.Removed {
		delete(next.reps, name)
	}
	return next
}

// list is the snapshot in List()'s order.
func (h heldSnapshot) list() []datastore.Replica {
	out := make([]datastore.Replica, 0, len(h.reps))
	for _, r := range h.reps {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dataset < out[j].Dataset })
	return out
}

func FuzzDatasetsListSinceMatchesSnapshot(f *testing.F) {
	// TestDatasetsListSinceParity's walk: three puts, a replace, a delete,
	// then a fresh, an incremental, a caught-up and a future client.
	var seed []byte
	for _, op := range [][]byte{
		dsOp(dsObserve, 0),
		dsOp(dsPut, 1|2<<3), dsOp(dsPut, 0|1<<3), dsOp(dsPut, 2|3<<3),
		dsOp(dsObserve, 1),
		dsOp(dsReplace, 0), dsOp(dsDelete, 1),
		dsOp(dsObserve, 0), dsOp(dsObserve, 1), dsOp(dsObserve, 1),
		dsOp(dsCheck, 9),
	} {
		seed = append(seed, op...)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(append(append(dsOp(dsAdopt, 3), dsOp(dsObserve, 2)...), dsOp(dsRestart, 0)...))
	f.Add(append(append(dsOp(dsPut, 4), dsOp(dsObserve, 0)...), append(dsOp(dsRestart, 0), dsOp(dsPut, 5)...)...))

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		e := sim.NewEngine(13)
		c := iaas.NewCloud(e, "fuzz-site", "openstack", "chicago")
		c.AddRack("r", 2)
		var site atomic.Pointer[Server]
		restart := func() *datastore.Store {
			store := datastore.NewStore("fuzz-site", "chicago", datasetsVolume(t, e, "vol", 1<<40))
			srv := NewServer(c)
			srv.Datasets = store
			site.Store(srv)
			return store
		}
		local := restart()
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			site.Load().ServeHTTP(w, r)
		}))
		t.Cleanup(hs.Close)
		remote := datastore.NewRemote("fuzz-site", "chicago", hs.URL, nil)

		// since reads ListSince(rev) through both backends and requires
		// the same Delta.
		since := func(step int, rev int64) datastore.Delta {
			t.Helper()
			l, errL := local.ListSince(context.Background(), rev)
			r, errR := remote.ListSince(context.Background(), rev)
			if errL != nil || errR != nil {
				t.Fatalf("step %d: ListSince(%d): local err %v, remote err %v", step, rev, errL, errR)
			}
			if !reflect.DeepEqual(l, r) {
				t.Fatalf("step %d: ListSince(%d) diverged:\nlocal : %+v\nremote: %+v", step, rev, l, r)
			}
			return l
		}
		// follow advances h by one ListSince and holds the result to
		// List(); the returned snapshot is what the client holds next.
		follow := func(step int, h heldSnapshot) heldSnapshot {
			t.Helper()
			next := h.apply(since(step, h.rev))
			want, _ := local.List(context.Background())
			if got := next.list(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: snapshot at rev %d plus its delta != List():\nsnapshot: %+v\nlist    : %+v", step, h.rev, got, want)
			}
			return next
		}
		fresh := heldSnapshot{reps: map[string]datastore.Replica{}}
		clients := []heldSnapshot{fresh, fresh, fresh}
		held := []heldSnapshot{fresh} // every revision a client held since the last restart

		for i := 0; i+1 < len(ops); i += 2 {
			step, kind, arg := i/2, ops[i]%dsNumOps, ops[i+1]
			name := dsNames[arg%4]
			api := datastore.API(local)
			if arg&4 != 0 {
				api = remote
			}
			switch kind {
			case dsPut:
				_ = api.Put(context.Background(), datastore.Replica{Dataset: name, SizeBytes: int64(1+arg>>3) << 20, Version: 1})
			case dsReplace:
				if cur, err := local.Get(context.Background(), name); err == nil {
					cur.Version++
					cur.Checksum = ""
					_ = api.Put(context.Background(), cur)
				}
			case dsDelete:
				_ = api.Delete(context.Background(), name)
			case dsAdopt:
				_ = local.Adopt(datastore.Replica{Dataset: name, SizeBytes: int64(1+arg>>2) << 30, Version: 1})
			case dsObserve:
				k := int(arg) % len(clients)
				clients[k] = follow(step, clients[k])
				held = append(held, clients[k])
			case dsCheck:
				for _, h := range held {
					follow(step, h)
				}
				follow(step, fresh)
				// A revision ahead of the store resets.
				rev := since(step, 0).Rev
				ahead := heldSnapshot{rev: rev + 1 + int64(arg), reps: map[string]datastore.Replica{}}
				if d := since(step, ahead.rev); !d.Reset {
					t.Fatalf("step %d: ListSince(%d) ahead of rev %d did not reset: %+v", step, ahead.rev, rev, d)
				}
				follow(step, ahead)
			case dsRestart:
				// Every client's revision is now ahead of the fresh store
				// (or 0), so each one's next poll must reset. It follows at
				// once: without an epoch the protocol cannot tell a
				// restarted store that has since churned past a client's
				// revision from the old one.
				local = restart()
				held = held[:0]
				for k := range clients {
					if d := since(step, clients[k].rev); !d.Reset {
						t.Fatalf("step %d: client at rev %d after a restart got no reset: %+v", step, clients[k].rev, d)
					}
					clients[k] = follow(step, clients[k])
					held = append(held, clients[k])
				}
			}
		}
		for _, h := range held {
			follow(len(ops)/2, h)
		}
	})
}
