package iaas_test

// The cloud as its sites serve it: these tests drive a Cloud through the
// two native dialects cloudapi.NewServer puts in front of it, from outside
// the package, since cloudapi imports iaas. They hold the model's rules
// (quotas, the lifecycle, the catalogue) to what a raw HTTP client sees;
// cloudapi's TestNativeDialectBytes pins the bytes.

import (
	"encoding/json"
	"encoding/xml"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"osdc/internal/cloudapi"
	"osdc/internal/iaas"
	"osdc/internal/sim"
)

// site serves a cloud of the given stack, with one rack of hosts, over a
// live listener.
func site(t *testing.T, stack string, hosts int) (*httptest.Server, *iaas.Cloud) {
	t.Helper()
	c := iaas.NewCloud(sim.NewEngine(5), "adler", stack, "chicago-kenwood")
	c.AddRack("r1", hosts)
	srv := httptest.NewServer(cloudapi.NewServer(c))
	t.Cleanup(srv.Close)
	return srv, c
}

// --- the OpenStack dialect ---

func novaDo(t *testing.T, method, url, user string, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if user != "" {
		req.Header.Set("X-Auth-User", user)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decode reads resp's JSON body into v and closes it.
func decode(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

type server struct {
	ID   string `json:"id"`
	Name string `json:"name"`
}

func TestNovaCreateListDelete(t *testing.T) {
	srv, c := site(t, "openstack", 4)
	c.SetQuota("alice", iaas.Quota{MaxInstances: 10, MaxCores: 100})
	resp := novaDo(t, "POST", srv.URL+"/v2/servers", "alice",
		`{"server":{"name":"vm1","flavorRef":"m1.small"}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	var created struct {
		Server server `json:"server"`
	}
	decode(t, resp, &created)
	if created.Server.ID == "" {
		t.Fatal("no server id")
	}

	var list struct {
		Servers []server `json:"servers"`
	}
	decode(t, novaDo(t, "GET", srv.URL+"/v2/servers", "alice", ""), &list)
	if len(list.Servers) != 1 || list.Servers[0].Name != "vm1" {
		t.Fatalf("list = %+v", list.Servers)
	}

	resp = novaDo(t, "DELETE", srv.URL+"/v2/servers/"+created.Server.ID, "alice", "")
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestNovaAuthRequired(t *testing.T) {
	srv, _ := site(t, "openstack", 4)
	resp := novaDo(t, "GET", srv.URL+"/v2/servers", "", "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status = %d, want 401", resp.StatusCode)
	}
}

func TestNovaQuotaMapsTo403(t *testing.T) {
	srv, _ := site(t, "openstack", 4)
	for i := 0; i < 2; i++ {
		novaDo(t, "POST", srv.URL+"/v2/servers", "bob", `{"server":{"name":"x","flavorRef":"m1.medium"}}`).Body.Close()
	}
	resp := novaDo(t, "POST", srv.URL+"/v2/servers", "bob", `{"server":{"name":"x","flavorRef":"m1.small"}}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("status = %d, want 403", resp.StatusCode)
	}
}

func TestNovaFlavorsEndpoint(t *testing.T) {
	srv, _ := site(t, "openstack", 4)
	var out struct {
		Flavors []struct {
			Name string `json:"name"`
		} `json:"flavors"`
	}
	decode(t, novaDo(t, "GET", srv.URL+"/v2/flavors", "alice", ""), &out)
	if len(out.Flavors) != 4 {
		t.Fatalf("flavors = %d, want 4", len(out.Flavors))
	}
}

// --- the EC2 dialect ---

// ec2Get issues one query action and decodes the XML answer into v.
func ec2Get(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := xml.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

type ec2Item struct {
	InstanceID string `xml:"instanceId"`
	StateName  string `xml:"instanceState>name"`
}

func TestEucaRunDescribeTerminate(t *testing.T) {
	srv, c := site(t, "eucalyptus", 2)
	c.SetQuota("alice", iaas.Quota{MaxInstances: 10, MaxCores: 100})

	var run struct {
		Items []ec2Item `xml:"instancesSet>item"`
	}
	ec2Get(t, srv.URL+"/?Action=RunInstances&AWSAccessKeyId=alice&InstanceType=m1.small&KeyName=myvm", &run)
	if len(run.Items) != 1 || run.Items[0].StateName != "pending" {
		t.Fatalf("run = %+v", run)
	}
	id := run.Items[0].InstanceID

	var desc struct {
		Reservations []struct {
			Items []ec2Item `xml:"instancesSet>item"`
		} `xml:"reservationSet>item"`
	}
	ec2Get(t, srv.URL+"/?Action=DescribeInstances&AWSAccessKeyId=alice", &desc)
	if len(desc.Reservations) != 1 || len(desc.Reservations[0].Items) != 1 {
		t.Fatalf("describe = %+v", desc)
	}

	var term struct {
		State string `xml:"instancesSet>item>currentState>name"`
	}
	ec2Get(t, srv.URL+"/?Action=TerminateInstances&AWSAccessKeyId=alice&InstanceId.1="+id, &term)
	if term.State != "terminated" {
		t.Fatalf("terminate state = %s", term.State)
	}
}

func TestEucaResponsesAreXML(t *testing.T) {
	srv, _ := site(t, "eucalyptus", 1)
	resp, err := http.Get(srv.URL + "/?Action=DescribeImages&AWSAccessKeyId=u")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/xml" {
		t.Fatalf("content type = %s, want text/xml", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "<?xml") {
		t.Fatal("no XML header in response")
	}
}

func TestEucaUnknownAction(t *testing.T) {
	srv, _ := site(t, "eucalyptus", 0)
	resp, err := http.Get(srv.URL + "/?Action=Nonsense&AWSAccessKeyId=u")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}
