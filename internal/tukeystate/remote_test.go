package tukeystate

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"osdc/internal/tukey"
)

// TestRemoteErrorTable pins what the state-plane clients make of a failing
// plane: for each status, with a {"error": msg} envelope and with a
// text/plain body that carries none, the exact error Err reports for every
// store call, and the limiter's fail-open answer with its error count.
func TestRemoteErrorTable(t *testing.T) {
	const siteMsg = "site says no"
	for _, status := range []int{http.StatusBadRequest, http.StatusNotFound, http.StatusConflict,
		http.StatusInternalServerError, http.StatusBadGateway} {
		for _, envelope := range []bool{true, false} {
			body := "text"
			if envelope {
				body = "envelope"
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
				store := NewRemoteSessionStore(srv.URL, nil)
				limiter := NewRemoteLimiter(srv.URL, nil)
				sess := tukey.Session{Identity: tukey.Identity{Provider: tukey.Shibboleth, Identifier: "alice@uchicago.edu"}}

				rows := []struct {
					name, path string
					call       func() bool // reports whether the call kept its failure answer
				}{
					{"Get", "/state/sessions/get", func() bool { _, ok := store.Get("tok"); return !ok }},
					{"Put", "/state/sessions/put", func() bool { store.Put("tok", sess); return true }},
					{"Delete", "/state/sessions/delete", func() bool { store.Delete("tok"); return true }},
					{"Count", "/state/sessions/count", func() bool { return store.Count() == 0 }},
					{"ExpireBefore", "/state/sessions/expire", func() bool { return store.ExpireBefore(time.Now()) == 0 }},
					{"Gate", "/state/check", func() bool {
						_, found, admitted, handled := limiter.Gate(store, "tok", 1, time.Now())
						return !found && admitted && handled
					}},
				}
				for _, row := range rows {
					if !row.call() {
						t.Errorf("%s against a %d plane did not keep its failure answer", row.name, status)
					}
					want := fmt.Sprintf("tukeystate: %s%s: status %d", srv.URL, row.path, status)
					if err := store.Err(); err == nil || err.Error() != want {
						t.Errorf("%s: Err() = %v, want %q", row.name, err, want)
					}
				}
				// The limiter fails open and counts the Gate trip above
				// and this AllowN.
				if !limiter.AllowN("alice@uchicago.edu", 1) {
					t.Errorf("AllowN against a %d plane refused; it fails open", status)
				}
				if limiter.Errors != 2 {
					t.Errorf("limiter counted %d errors, want 2", limiter.Errors)
				}
			})
		}
	}
}
