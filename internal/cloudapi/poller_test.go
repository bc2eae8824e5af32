package cloudapi

import (
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"osdc/internal/iaas"
	"osdc/internal/sim"
)

// The usage poller's oracle: however a cloud churns, every maintained
// snapshot — advanced only by deltas, through Local and over the wire —
// must equal the full sample Local.Usage() takes at that moment.

// Fuzz operations: each is a (kind, arg) byte pair.
const (
	opLaunch    = iota // arg: user (low 2 bits), flavor (next bits)
	opStop             // arg: user, instance index
	opTerminate        // arg: user, instance index
	opRun              // past the boot and stop delays
	opPoll
	opRestart // a fresh cloud behind a fresh Server, then a poll
	numOps
)

var (
	fuzzUsers   = []string{"alice", "bob", "carol", "dave"}
	fuzzFlavors = []string{"m1.small", "m1.medium", "m1.large"}
)

// fuzzOp encodes one operation; user and k pick the user and the flavor
// or instance.
func fuzzOp(kind, user, k byte) []byte { return []byte{kind, user | k<<2} }

func fuzzCloud(e *sim.Engine) *iaas.Cloud {
	c := iaas.NewCloud(e, "poller-fuzz", "openstack", "chicago")
	c.AddRack("r", 4)
	for _, u := range fuzzUsers {
		c.SetQuota(u, iaas.Quota{MaxInstances: 6, MaxCores: 16})
	}
	return c
}

func FuzzUsagePollerMatchesFullSample(f *testing.F) {
	// The checkpoint walk that pinned Remote.Usage()'s delta cache:
	// launches, a stop that settles, a terminate, a site restart, and
	// churn on the restarted site.
	var seed []byte
	for _, op := range [][]byte{
		fuzzOp(opPoll, 0, 0),
		fuzzOp(opLaunch, 0, 0), fuzzOp(opLaunch, 1, 1), fuzzOp(opPoll, 0, 0),
		fuzzOp(opStop, 0, 0), fuzzOp(opRun, 0, 0), fuzzOp(opPoll, 0, 0),
		fuzzOp(opTerminate, 0, 0), fuzzOp(opPoll, 0, 0),
		fuzzOp(opRestart, 0, 0),
		fuzzOp(opLaunch, 2, 0), fuzzOp(opPoll, 0, 0),
	} {
		seed = append(seed, op...)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(append(fuzzOp(opLaunch, 3, 2), fuzzOp(opRestart, 0, 0)...))

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		e := sim.NewEngine(11)
		cloud := fuzzCloud(e)
		srv := httptest.NewServer(NewServer(cloud))
		t.Cleanup(srv.Close)
		local := NewLocal(cloud)
		remote := NewRemote(cloud.Name, cloud.Stack, srv.URL, nil)
		pollers := map[string]*UsagePoller{
			"local":  NewUsagePoller([]CloudAPI{local}),
			"remote": NewUsagePoller([]CloudAPI{remote}),
		}
		ids := map[string][]string{}

		poll := func(step int) {
			t.Helper()
			want, _ := local.Usage()
			for name, p := range pollers {
				u := p.Poll(0)[0]
				if u == nil {
					t.Fatalf("step %d: %s poll failed: %v", step, name, p.ErrorsByCloud())
				}
				if !reflect.DeepEqual(u.ByUser, want.ByUser) || u.UsedCores != want.UsedCores || u.TotalCores != want.TotalCores {
					t.Fatalf("step %d: %s snapshot diverged from the full sample:\nsnapshot: %+v\nfull    : %+v", step, name, *u, want)
				}
			}
		}

		for i := 0; i+1 < len(ops); i += 2 {
			kind, arg := ops[i]%numOps, ops[i+1]
			user := fuzzUsers[arg%4]
			k := int(arg >> 2)
			switch kind {
			case opLaunch:
				if inst, err := cloud.Launch(user, "vm", fuzzFlavors[k%len(fuzzFlavors)], ""); err == nil {
					ids[user] = append(ids[user], inst.ID)
				}
			case opStop, opTerminate:
				mine := ids[user]
				if len(mine) == 0 {
					continue
				}
				if kind == opStop {
					_ = cloud.Stop(user, mine[k%len(mine)]) // a terminated instance refuses
				} else {
					_ = cloud.Terminate(user, mine[k%len(mine)])
				}
			case opRun:
				e.RunFor(120)
			case opPoll:
				poll(i / 2)
			case opRestart:
				// The pollers' revs are now ahead of the site (or 0), so the
				// next poll must reset. It follows at once: without an epoch
				// the protocol cannot tell a restarted site that has since
				// churned past the caller's rev from the old one.
				cloud = fuzzCloud(e)
				next := httptest.NewServer(NewServer(cloud))
				t.Cleanup(next.Close)
				local.C = cloud
				remote.endpoint = strings.TrimRight(next.URL, "/")
				ids = map[string][]string{}
				poll(i / 2)
			}
		}
		poll(len(ops) / 2)
	})
}
