package cloudapi

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"osdc/internal/iaas"
	"osdc/internal/sim"
)

// The native dialects' oracle: whatever users and names a Local accepts at
// launch, listing them through a Remote — OpenStack JSON and EC2 XML alike
// — must hand back every field exactly as Local.Instances does. A string
// one of the encodings cannot carry must be refused at launch, with the
// same error on both dialects, rather than come back changed.

// handlerTransport carries requests straight into a handler: the full
// native encoding both ways, without a listener per fuzz execution.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		defer r.Body.Close()
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// Fuzz operations: one opcode byte, then the operation's fields.
const (
	instLaunch  = iota // user, name: length-prefixed strings
	instAdvance        // the clock moves (op>>2)·10 s: boots complete at 90 s
	instStop           // user: stop the user's first instance
	instNumOps
)

// field splits a length-prefixed string off data: one length byte (mod
// max+1), then that many bytes, or what is left.
func field(data []byte, max int) (string, []byte) {
	if len(data) == 0 {
		return "", nil
	}
	n := int(data[0]) % (max + 1)
	data = data[1:]
	if n > len(data) {
		n = len(data)
	}
	return string(data[:n]), data[n:]
}

// dialectRig is one cloud seen through Local and through a Remote speaking
// the cloud's native dialect. Both clouds carry one name, so a Remote error
// reads the same on either dialect.
type dialectRig struct {
	local  *Local
	remote *Remote
}

func newDialectRig(e *sim.Engine, stack string) dialectRig {
	c := iaas.NewCloud(e, "fuzz", stack, "chicago")
	c.AddRack("r", 2)
	c.RegisterImage(iaas.Image{Name: "ubuntu", Public: true}) // img-fuzz-1
	c.RegisterImage(iaas.Image{Name: "private"})              // img-fuzz-2
	client := &http.Client{Transport: handlerTransport{NewServer(c)}}
	return dialectRig{NewLocal(c), NewRemote(c.Name, stack, "http://site.test", client)}
}

func instOp(op byte, fields ...string) []byte {
	out := []byte{op}
	for _, s := range fields {
		out = append(append(out, byte(len(s))), s...)
	}
	return out
}

func FuzzRemoteInstancesMatchLocal(f *testing.F) {
	f.Add(append(append(append(
		instOp(instLaunch, "alice", "vm-1"),
		instOp(instLaunch, "bob", "web <&> \"server\"\t\r\n")...),
		instOp(instAdvance|9<<2)...),
		instOp(instStop, "alice")...))
	f.Add(instOp(instLaunch|4, "carol", "caf\xc3\xa9 \xe2\x80\xa8 \xef\xbf\xbd"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			t.Skip("longer than any program worth running")
		}
		e := sim.NewEngine(1)
		rigs := []dialectRig{newDialectRig(e, "openstack"), newDialectRig(e, "eucalyptus")}
		users := map[string]bool{}
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			switch op % instNumOps {
			case instLaunch:
				// Bit 2 launches through the Remote instead of the Local.
				var user, name string
				user, data = field(data, 8)
				name, data = field(data, 16)
				viaRemote := op&4 != 0
				var errs [2]string
				for i, rig := range rigs {
					var api CloudAPI = rig.local
					if viaRemote {
						api = rig.remote
					}
					_, err := api.Launch(user, name, "m1.small", "img-fuzz-1")
					if err == nil {
						users[user] = true
						continue
					}
					errs[i] = err.Error()
					if !viaRemote {
						continue
					}
					if _, err := rig.local.Launch(user, name, "m1.small", "img-fuzz-1"); err == nil {
						t.Fatalf("%s: Launch(%q, %q) through the Remote refused what Local accepts: %s", rig.remote.Stack(), user, name, errs[i])
					}
				}
				if errs[0] != errs[1] {
					t.Fatalf("Launch(%q, %q), through the Remote %v:\nopenstack : %q\neucalyptus: %q", user, name, viaRemote, errs[0], errs[1])
				}
			case instAdvance:
				e.RunFor(sim.Duration(op>>2) * 10)
			case instStop:
				var user string
				user, data = field(data, 8)
				for _, rig := range rigs {
					if insts, _ := rig.local.Instances(user); len(insts) > 0 {
						_ = rig.local.Stop(user, insts[0].ID)
					}
				}
			}
		}
		for user := range users {
			for _, rig := range rigs {
				want, _ := rig.local.Instances(user)
				got, err := rig.remote.Instances(user)
				if err != nil {
					t.Fatalf("%s: Instances(%q): %v; Local has %+v", rig.remote.Stack(), user, err, want)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Instances(%q) diverged:\nlocal : %+v\nremote: %+v", rig.remote.Stack(), user, want, got)
				}
			}
		}
	})
}
