package cloudapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"osdc/internal/iaas"
	"osdc/internal/wire"
)

// TestRemoteReadsSurfaceSiteErrors: a site that answers a listing, a
// terminate or a stop with an error status must come back as an error
// carrying the status and the site's message, in both dialects — never as
// an empty listing with a nil error (which is what decoding the Nova error
// envelope as a listing used to produce), nor as a bare status.
func TestRemoteReadsSurfaceSiteErrors(t *testing.T) {
	envelopes := map[string]string{
		"openstack":  `{"error":{"message":%q}}`,
		"eucalyptus": `<Response><Errors><Error><Code>Failure</Code><Message>%s</Message></Error></Errors></Response>`,
	}
	for stack, envelope := range envelopes {
		for _, status := range []int{http.StatusUnauthorized, http.StatusInternalServerError} {
			t.Run(fmt.Sprintf("%s-%d", stack, status), func(t *testing.T) {
				const msg = "site says no"
				srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					w.WriteHeader(status)
					fmt.Fprintf(w, envelope, msg)
				}))
				defer srv.Close()
				remote := NewRemote("broken", stack, srv.URL, nil)

				reads := map[string]func() (int, error){
					"Instances": func() (int, error) { l, err := remote.Instances("alice"); return len(l), err },
					"Terminate": func() (int, error) { return 0, remote.Terminate("alice", "i-1") },
					"Stop":      func() (int, error) { return 0, remote.Stop("alice", "i-1") },
				}
				for name, read := range reads {
					n, err := read()
					if err == nil || n != 0 {
						t.Fatalf("%s against a %d site = %d entries, err %v; want an error", name, status, n, err)
					}
					text := err.Error()
					if !strings.HasPrefix(text, "cloudapi: broken ") || !strings.Contains(text, fmt.Sprint(status)) {
						t.Errorf("%s error %q does not name the cloud and status %d", name, text, status)
					}
					if !strings.HasSuffix(text, fmt.Sprintf("(%d): %s", status, msg)) {
						t.Errorf("%s error %q does not carry the site's message", name, text)
					}
				}
			})
		}
	}
	operatorPlaneErrorTable(t)
}

// siteMsg is what a failing site says in the error table's bodies.
const siteMsg = "site says no"

// errorStatuses are the failure answers every JSON-plane call is pinned
// against.
var errorStatuses = []int{http.StatusBadRequest, http.StatusNotFound, http.StatusConflict,
	http.StatusInternalServerError, http.StatusBadGateway}

// failingSite answers every request with status and either the JSON
// planes' {"error": msg} envelope or a text/plain body that carries none.
func failingSite(t *testing.T, status int, envelope bool) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if envelope {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			fmt.Fprintf(w, "{\"error\":%q}\n", siteMsg)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(status)
		fmt.Fprintln(w, siteMsg)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// wantErr is one row's expected failure: the exact text (or, with prefix,
// its leading part — the rest is a decoder's detail) and the error class
// errors.Is must find, nil for none.
type wantErr struct {
	text   string
	prefix bool
	class  error
}

// checkErr holds err to want, and to no class but want's among classes.
func checkErr(t *testing.T, what string, err error, want wantErr, classes ...error) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: nil error, want %q", what, want.text)
	}
	if got := err.Error(); got != want.text && !(want.prefix && strings.HasPrefix(got, want.text)) {
		t.Errorf("%s: error %q, want %q (prefix %v)", what, got, want.text, want.prefix)
	}
	for _, class := range classes {
		if errors.Is(err, class) != (class == want.class) {
			t.Errorf("%s: errors.Is(%v) = %v, want class %v", what, class, errors.Is(err, class), want.class)
		}
	}
}

// operatorPlaneErrorTable pins every operator-plane read and write of a
// Remote against a failing site: for each status, with the site's JSON
// envelope and with a body that carries none, the exact error text and
// class the caller sees.
func operatorPlaneErrorTable(t *testing.T) {
	// msg is the envelope's message, "" for a text/plain body.
	rows := []struct {
		name string
		call func(r *Remote, url string) error
		want func(status int, msg, url string) wantErr
	}{
		{"SetQuota",
			func(r *Remote, _ string) error { return r.SetQuota("alice", iaas.Quota{MaxInstances: 1, MaxCores: 1}) },
			func(status int, msg, _ string) wantErr {
				if msg != "" {
					return wantErr{text: msg}
				}
				return wantErr{text: fmt.Sprintf("cloudapi: broken quota update returned %d", status)}
			}},
		{"Clock",
			func(r *Remote, _ string) error { _, err := r.Clock(context.Background()); return err },
			func(status int, _, _ string) wantErr {
				return wantErr{text: fmt.Sprintf("cloudapi: broken clock read returned %d", status)}
			}},
		{"ClockSync",
			func(r *Remote, _ string) error { return r.ClockSync(context.Background(), 10) },
			func(status int, _, _ string) wantErr {
				if status == http.StatusConflict {
					return wantErr{text: "cloudapi: broken: " + ErrFreeRunning.Error(), class: ErrFreeRunning}
				}
				return wantErr{text: fmt.Sprintf("cloudapi: broken clock sync returned %d", status)}
			}},
		{"UsageSince",
			func(r *Remote, _ string) error { _, err := r.UsageSince(context.Background(), 3); return err },
			func(status int, msg, _ string) wantErr {
				if msg != "" {
					return wantErr{text: msg}
				}
				return wantErr{text: fmt.Sprintf("cloudapi: broken usage delta returned %d", status)}
			}},
		{"ProbeRemote",
			func(_ *Remote, url string) error { _, err := ProbeRemote(context.Background(), url, nil); return err },
			func(status int, msg, url string) wantErr {
				text := fmt.Sprintf("cloudapi: %s is not a cloud site (status %d", url, status)
				if msg != "" {
					return wantErr{text: text + ", err <nil>)"}
				}
				return wantErr{text: text, prefix: true}
			}},
	}
	for _, status := range errorStatuses {
		for _, envelope := range []bool{true, false} {
			msg := ""
			if envelope {
				msg = siteMsg
			}
			body := "text"
			if envelope {
				body = "envelope"
			}
			t.Run(fmt.Sprintf("operator-%d-%s", status, body), func(t *testing.T) {
				url := failingSite(t, status, envelope)
				remote := NewRemote("broken", "eucalyptus", url, nil)
				for _, row := range rows {
					checkErr(t, row.name, row.call(remote, url), row.want(status, msg, url), ErrFreeRunning)
				}
			})
		}
	}
}

// TestEC2BodyOverMaxIsRefused: an EC2 answer over wire.MaxBodyBytes is an
// error, even when the document it starts with would decode on its own.
func TestEC2BodyOverMaxIsRefused(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/xml")
		fmt.Fprint(w, "<DescribeInstancesResponse></DescribeInstancesResponse>")
		fmt.Fprint(w, strings.Repeat(" ", wire.MaxBodyBytes))
	}))
	defer srv.Close()
	if _, err := NewRemote("big", "eucalyptus", srv.URL, nil).Instances("alice"); err == nil {
		t.Fatal("an EC2 answer over wire.MaxBodyBytes was read as a listing")
	}
}

// TestNovaBodyOverMaxIsRefused: a Nova answer over wire.MaxBodyBytes is an
// error too, even when the listing it starts with would decode on its own.
func TestNovaBodyOverMaxIsRefused(t *testing.T) {
	const listing = `{"servers":[{"id":"i-1","name":"vm","status":"ACTIVE","flavorRef":"m1.small"}]}`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, listing, strings.Repeat(" ", wire.MaxBodyBytes+1-len(listing)))
	}))
	defer srv.Close()
	if l, err := NewRemote("big", "openstack", srv.URL, nil).Instances("alice"); err == nil {
		t.Fatalf("a Nova answer over wire.MaxBodyBytes was read as a listing of %d", len(l))
	}
}
