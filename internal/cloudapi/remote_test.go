package cloudapi

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRemoteReadsSurfaceSiteErrors: a site that answers a listing with an
// error status must come back as an error carrying the site's message, in
// both dialects — never as an empty listing with a nil error (which is
// what decoding the Nova error envelope as a listing used to produce).
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
					"Images":    func() (int, error) { l, err := remote.Images("alice"); return len(l), err },
					"Flavors":   func() (int, error) { l, err := remote.Flavors(); return len(l), err },
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
					// EC2 never listed flavors: that read rides the operator
					// plane, which reports the status without a dialect body.
					if !(stack == "eucalyptus" && name == "Flavors") && !strings.HasSuffix(text, fmt.Sprintf("(%d): %s", status, msg)) {
						t.Errorf("%s error %q does not carry the site's message", name, text)
					}
				}
			})
		}
	}
}
