package tukeystate

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"osdc/internal/tukey"
)

// serverTransport carries requests straight into a handler: the full wire
// encoding both ways, without a listener per fuzz execution.
type serverTransport struct{ h http.Handler }

func (t serverTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		defer r.Body.Close()
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

const (
	gateBurst = 4
	gateBase  = "http://state.test"
)

var (
	gateTokens     = []string{"t0", "t1", "t2", "t3"} // t3 is never Put: always absent
	gateIdentities = []string{"a@x", "b@x"}
	gateEpoch      = time.Date(2012, 11, 1, 12, 0, 0, 0, time.UTC)
)

// gateAt maps a byte onto a small instant space: b>>1 whole seconds past
// the epoch, plus one nanosecond when b is odd — so a Gate's now can land
// exactly on a session's expiry or one nanosecond after it.
func gateAt(b byte) time.Time {
	return gateEpoch.Add(time.Duration(b>>1)*time.Second + time.Duration(b&1))
}

// gateOp encodes one step of the fuzz sequence: four bytes, op then three
// arguments.
func gateOp(op, a, b, c byte) []byte { return []byte{op, a, b, c} }

func gateSeq(ops ...[]byte) []byte {
	var out []byte
	for _, op := range ops {
		out = append(out, op...)
	}
	return out
}

// FuzzGateMatchesComposition holds the one-trip admission to the two-step
// composition it replaces. Fuzz bytes decode, four at a time, into Put,
// Delete and Gate steps over a few tokens and identities; the sequence
// runs against an in-process store and limiter composed the way the
// console composes them (Get, AdmissionKey, AllowN) and against the remote
// pair on one state Server through RemoteLimiter.Gate. Every Gate must
// agree on (session, found, admitted), and a final drain of every bucket
// must admit the same number of unit charges on both sides. Rate 0 keeps
// the buckets a pure function of the sequence.
func FuzzGateMatchesComposition(f *testing.F) {
	// now == Expires is live; one nanosecond later is expired.
	f.Add(gateSeq(gateOp(0, 0, 0, 2), gateOp(2, 0, 1, 2), gateOp(2, 0, 1, 3)))
	// A zero Expires never expires.
	f.Add(gateSeq(gateOp(0, 1, 1, 0), gateOp(2, 1, 1, 255)))
	// An absent token, and a deleted one.
	f.Add(gateSeq(gateOp(2, 3, 1, 0), gateOp(0, 2, 0, 0), gateOp(1, 2, 0, 0), gateOp(2, 2, 1, 0)))
	// The invalid-session bucket drained empty.
	f.Add(gateSeq(gateOp(2, 3, 1, 0), gateOp(2, 3, 1, 0), gateOp(2, 3, 1, 0),
		gateOp(2, 3, 1, 0), gateOp(2, 3, 1, 0), gateOp(2, 3, 1, 0)))
	// cost > burst is clamped: admitted once, then the bucket is empty.
	f.Add(gateSeq(gateOp(0, 0, 0, 0), gateOp(2, 0, 7, 0), gateOp(2, 0, 1, 0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		localStore := tukey.NewMemorySessionStore()
		localLimiter := tukey.NewRateLimiter(0, gateBurst)
		server := NewServer(tukey.NewMemorySessionStore(), tukey.NewRateLimiter(0, gateBurst))
		client := &http.Client{Transport: serverTransport{server}}
		remoteStore := NewRemoteSessionStore(gateBase, client)
		remoteLimiter := NewRemoteLimiter(gateBase, client)

		for i := 0; i+4 <= len(data); i += 4 {
			op, a, b, c := data[i]%3, data[i+1], data[i+2], data[i+3]
			switch op {
			case 0:
				sess := tukey.Session{Identity: tukey.Identity{Identifier: gateIdentities[b%2]}}
				if c != 0 {
					sess.Expires = gateAt(c)
				}
				tok := gateTokens[a%3]
				localStore.Put(tok, sess)
				remoteStore.Put(tok, sess)
			case 1:
				tok := gateTokens[a%3]
				localStore.Delete(tok)
				remoteStore.Delete(tok)
			case 2:
				tok, cost, now := gateTokens[a%4], float64(b%(2*gateBurst)), gateAt(c)
				ls, lFound := localStore.Get(tok)
				key := tukey.AdmissionKey(ls, lFound, now)
				lAdmitted := localLimiter.AllowN(key, cost)

				rs, rFound, rAdmitted, handled := remoteLimiter.Gate(remoteStore, tok, cost, now)
				if !handled {
					t.Fatalf("step %d: Gate declined a store on its own plane", i/4)
				}
				if lFound != rFound || lAdmitted != rAdmitted ||
					ls.Identity != rs.Identity || !ls.Expires.Equal(rs.Expires) {
					t.Fatalf("step %d Gate(%s, %g, %v): local (%+v, found %v, admitted %v), remote (%+v, found %v, admitted %v)",
						i/4, tok, cost, now, ls, lFound, lAdmitted, rs, rFound, rAdmitted)
				}
			}
		}
		if err := remoteStore.Err(); err != nil {
			t.Fatalf("state plane error: %v", err)
		}
		if remoteLimiter.Errors != 0 {
			t.Fatalf("limiter errors = %d", remoteLimiter.Errors)
		}
		// Every bucket, the invalid-session one included, must hold the
		// same tokens on both sides.
		invalid := tukey.AdmissionKey(tukey.Session{}, false, gateEpoch)
		for _, key := range append([]string{invalid}, gateIdentities...) {
			local, remote := 0, 0
			for i := 0; i <= gateBurst; i++ {
				if localLimiter.AllowN(key, 1) {
					local++
				}
				if remoteLimiter.AllowN(key, 1) {
					remote++
				}
			}
			if local != remote {
				t.Fatalf("bucket %q: local holds %d tokens, remote %d", key, local, remote)
			}
		}
	})
}
