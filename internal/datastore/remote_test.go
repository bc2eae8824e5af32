package datastore

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRemoteErrorTable pins every datasets-plane call of a Remote against
// a failing site: for each status, with the site's {"error": msg}
// envelope and with a text/plain body that carries none, the exact error
// text and whether errors.Is finds ErrNoReplica.
func TestRemoteErrorTable(t *testing.T) {
	const siteMsg = "site says no"
	// msg is the envelope's message, "" for a text/plain body.
	wireText := func(status int, msg string) string {
		if msg != "" {
			return msg
		}
		return fmt.Sprintf("datastore: remote returned %d", status)
	}
	rows := []struct {
		name string
		call func(r *Remote, url string) error
		// miss reports the rows whose 404 keeps the ErrNoReplica class.
		miss bool
	}{
		{name: "ListSince(0)", call: func(r *Remote, _ string) error { _, err := r.ListSince(context.Background(), 0); return err }},
		{name: "ListSince", call: func(r *Remote, _ string) error { _, err := r.ListSince(context.Background(), 3); return err }},
		{name: "Get", miss: true, call: func(r *Remote, _ string) error { _, err := r.Get(context.Background(), "EO-1"); return err }},
		{name: "Put", call: func(r *Remote, _ string) error {
			return r.Put(context.Background(), Replica{Dataset: "EO-1", SizeBytes: 1 << 20, Version: 1})
		}},
		{name: "Delete", miss: true, call: func(r *Remote, _ string) error { return r.Delete(context.Background(), "EO-1") }},
		{name: "ProbeRemote", call: func(_ *Remote, url string) error { _, err := ProbeRemote(url, nil); return err }},
	}
	for _, status := range []int{http.StatusBadRequest, http.StatusNotFound, http.StatusConflict,
		http.StatusInternalServerError, http.StatusBadGateway} {
		for _, envelope := range []bool{true, false} {
			msg, body := "", "text"
			if envelope {
				msg, body = siteMsg, "envelope"
			}
			t.Run(fmt.Sprintf("%d-%s", status, body), func(t *testing.T) {
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
				defer srv.Close()
				remote := NewRemote("broken", "chicago", srv.URL, nil)
				for _, row := range rows {
					err := row.call(remote, srv.URL)
					if err == nil {
						t.Fatalf("%s: nil error against a %d site", row.name, status)
					}
					want, prefix := wireText(status, msg), false
					if row.name == "ProbeRemote" {
						// Only the status is pinned on a body that is not
						// JSON: the rest is the decoder's detail.
						want = fmt.Sprintf("datastore: %s serves no datasets plane (status %d", srv.URL, status)
						if prefix = msg == ""; !prefix {
							want += ", err <nil>)"
						}
					}
					if got := err.Error(); got != want && !(prefix && strings.HasPrefix(got, want)) {
						t.Errorf("%s: error %q, want %q (prefix %v)", row.name, got, want, prefix)
					}
					if wantMiss := row.miss && status == http.StatusNotFound; errors.Is(err, ErrNoReplica) != wantMiss {
						t.Errorf("%s: errors.Is(ErrNoReplica) = %v, want %v", row.name, !wantMiss, wantMiss)
					}
				}
			})
		}
	}
}
