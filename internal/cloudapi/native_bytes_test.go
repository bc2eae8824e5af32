package cloudapi

import (
	"bytes"
	"encoding/xml"
	"flag"
	"fmt"
	"html"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"osdc/internal/iaas"
	"osdc/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/native_dialects.golden")

// recordingTransport carries requests into a handler like handlerTransport
// and writes each exchange to log: the request's method, URL, X-Auth-User
// and body, then the response's status, Content-Type and body, bodies
// quoted so every byte shows.
type recordingTransport struct {
	h   http.Handler
	log *bytes.Buffer
}

func (t recordingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	var body []byte
	if r.Body != nil {
		body, _ = io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	fmt.Fprintf(t.log, "> %s %s\n> X-Auth-User: %q\n> %q\n", r.Method, r.URL, r.Header.Get("X-Auth-User"), body)
	resp, err := handlerTransport{t.h}.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body = io.NopCloser(bytes.NewReader(out))
	fmt.Fprintf(t.log, "< %d %s\n< %q\n", resp.StatusCode, resp.Header.Get("Content-Type"), out)
	return resp, nil
}

// TestNativeDialectBytes pins both native dialects byte for byte: every
// Nova route and every EC2 action, each answered once and refused once,
// against a small seeded cloud. The calls go through a Remote where it can
// make them; the flavor and image listings, which only raw clients read,
// and the refusals a Remote never sends (no caller, an unknown route or
// action, a malformed body) go as raw requests. Run with -update to
// rewrite the golden.
func TestNativeDialectBytes(t *testing.T) {
	var log bytes.Buffer
	for _, stack := range []string{"openstack", "eucalyptus"} {
		e := sim.NewEngine(7)
		c := iaas.NewCloud(e, "site", stack, "chicago")
		c.AddRack("r", 1)
		c.RegisterImage(iaas.Image{Name: "ubuntu", Public: true, Tools: []string{"samtools", "bwa"}})
		c.RegisterImage(iaas.Image{Name: "private"})
		c.SetQuota("alice", iaas.Quota{MaxInstances: 2, MaxCores: 100})
		client := &http.Client{Transport: recordingTransport{NewServer(c), &log}}
		remote := NewRemote(c.Name, stack, "http://site.test", client)
		// A step logs whether the call was refused, not the Remote's
		// wording of it: the golden pins the wire, not the client.
		step := func(what string, err error) {
			fmt.Fprintf(&log, "= %s %s: refused %v\n", stack, what, err != nil)
		}
		send := func(method, path, user, body string) int {
			req, err := http.NewRequest(method, "http://site.test"+path, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if user != "" {
				req.Header.Set("X-Auth-User", user)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}
		raw := func(what, method, path, user, body string) {
			fmt.Fprintf(&log, "= %s %s\n", stack, what)
			send(method, path, user, body)
		}
		get := func(what, path, user string) {
			fmt.Fprintf(&log, "= %s %s: refused %v\n", stack, what, send(http.MethodGet, path, user, "") != http.StatusOK)
		}

		var ids []string
		for _, l := range []struct{ name, flavor, image string }{
			{"vm-1", "m1.small", "img-site-1"},
			{"vm-2", "m1.xlarge", ""}, // no host has the cores left
			{"vm-3", "m1.large", ""},
			{"vm-4", "m1.small", "img-site-2"}, // a private image
			{"vm-5", "m1.tiny", ""},            // no such flavor
		} {
			inst, err := remote.Launch("alice", l.name, l.flavor, l.image)
			step("Launch "+l.name, err)
			if err == nil {
				ids = append(ids, inst.ID)
			}
		}
		_, err := remote.Launch("alice", "vm-6", "m1.small", "")
		step("Launch over the instance limit", err)
		e.RunFor(100)
		_, err = remote.Instances("alice")
		step("Instances", err)
		_, err = remote.Instances("")
		step("Instances without a user", err)
		if stack == "openstack" {
			get("Images", "/v2/images", "alice")
			get("Images without a user", "/v2/images", "")
			get("Flavors", "/v2/flavors", "flavor-reader")
		} else {
			get("Images", "/?AWSAccessKeyId=alice&Action=DescribeImages", "")
			get("Images without a user", "/?AWSAccessKeyId=&Action=DescribeImages", "")
		}
		step("Stop", remote.Stop("alice", ids[0]))
		step("Stop an unknown instance", remote.Stop("alice", "site-inst-99"))
		e.RunFor(100)
		_, err = remote.Instances("alice")
		step("Instances after the stop", err)
		step("Terminate", remote.Terminate("alice", ids[1]))
		step("Terminate an unknown instance", remote.Terminate("alice", "site-inst-99"))
		_, err = remote.Instances("alice")
		step("Instances after the terminate", err)

		if stack == "openstack" {
			raw("raw: flavors without a user", http.MethodGet, "/v2/flavors", "", "")
			raw("raw: an unknown route", http.MethodGet, "/v2/volumes", "alice", "")
			raw("raw: a launch that is not JSON", http.MethodPost, "/v2/servers", "alice", "{")
			raw("raw: an action that is not JSON", http.MethodPost, "/v2/servers/"+ids[0]+"/action", "alice", "{")
			raw("raw: an unsupported action", http.MethodPost, "/v2/servers/"+ids[0]+"/action", "alice", `{"reboot": {"type": "HARD"}}`)
		} else {
			raw("raw: an action without a caller", http.MethodGet, "/?Action=DescribeImages", "", "")
			raw("raw: an unknown action", http.MethodGet, "/?Action=RebootInstances&AWSAccessKeyId=alice", "", "")
		}
	}

	golden := filepath.Join("testdata", "native_dialects.golden")
	if *update {
		if err := os.WriteFile(golden, log.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if got := log.String(); got != string(want) {
		t.Errorf("the native dialects' bytes moved; diff %s against the output of -update:\n%s", golden, got)
	}
}

// TestNativeRefusesWhatItCannotHandBack: a raw client's launch whose name
// one of the dialects could not hand back unchanged is refused before the
// cloud sees it, with checkWire's text, in both dialects.
func TestNativeRefusesWhatItCannotHandBack(t *testing.T) {
	const name = "a\x01b"
	want := checkWire("alice", name, "m1.small", "").Error()
	for _, row := range []struct {
		stack string
		req   *http.Request
		body  string
	}{
		{"openstack", httptest.NewRequest(http.MethodPost, "/v2/servers", strings.NewReader(`{"server":{"name":"a\u0001b","flavorRef":"m1.small"}}`)),
			fmt.Sprintf("{\"error\":{\"message\":%q}}\n", want)},
		{"eucalyptus", httptest.NewRequest(http.MethodGet, "/?Action=RunInstances&AWSAccessKeyId=alice&InstanceType=m1.small&KeyName=a%01b", nil),
			xml.Header + "<Response><Errors><Error><Code>InvalidParameterValue</Code><Message>" + html.EscapeString(want) + "</Message></Error></Errors></Response>"},
	} {
		c := iaas.NewCloud(sim.NewEngine(1), "site", row.stack, "chicago")
		c.AddRack("r", 1)
		c.SetQuota("alice", iaas.Quota{MaxInstances: 2, MaxCores: 100})
		row.req.Header.Set("X-Auth-User", "alice")
		rec := httptest.NewRecorder()
		NewServer(c).ServeHTTP(rec, row.req)
		if rec.Code != http.StatusBadRequest || rec.Body.String() != row.body {
			t.Errorf("%s: %d %q, want 400 %q", row.stack, rec.Code, rec.Body, row.body)
		}
		if n := len(c.Instances("alice")); n != 0 {
			t.Errorf("%s: the cloud launched %d instances", row.stack, n)
		}
	}
}
