package cloudapi

import (
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"osdc/internal/iaas"
	"osdc/internal/sim"
)

// Remote is the over-the-wire CloudAPI backend: an HTTP client that reaches
// a per-cloud Server. Tenant operations speak the cloud's *native* dialect
// — OpenStack JSON for "openstack" stacks, EC2 query calls with XML
// responses for "eucalyptus" — exactly the translation work the Tukey
// middleware's proxies did in-process before this layer existed (§5.2);
// operator operations (usage, quotas, EC2 flavor listings, ID lookup) use
// the Server's JSON plane.
//
// Quota and capacity rejections are mapped back onto iaas.ErrQuota /
// iaas.ErrCapacity so callers see the same error classes through both
// backends.
type Remote struct {
	name     string
	stack    string
	endpoint string // base URL, no trailing slash
	client   *http.Client
	secret   string // X-OSDC-Operator header on operator-plane writes

	// usageMu guards the delta-maintained usage snapshot: Usage() fetches
	// the full sample once, then advances it with UsageSince(lastRev)
	// round trips that carry only the churn — the wire-side half of the
	// incremental accounting path. A Reset delta (site restarted) rebuilds
	// the snapshot from the delta's full population.
	usageMu   sync.Mutex
	usageSnap map[string]UserUsage
	usageRev  int64
	haveUsage bool

	// deltaHits counts Usage() calls advanced by a since-rev delta;
	// deltaResets counts cache drops that forced a full resync — the
	// client-side usage-delta health the telemetry plane surfaces.
	deltaHits   atomic.Int64
	deltaResets atomic.Int64
}

// DefaultTimeout bounds every round trip of a Remote built with a nil
// client. The billing and monitoring pollers call Usage() from the
// clock-driving goroutine: without a deadline, one hung site would block
// the driver and freeze the entire simulation clock instead of surfacing
// as a PollErrors increment.
const DefaultTimeout = 10 * time.Second

// NewRemote builds a client for the cloud name speaking stack ("openstack"
// or "eucalyptus") at endpoint. client may be nil for a private client
// with DefaultTimeout.
func NewRemote(name, stack, endpoint string, client *http.Client) *Remote {
	if stack != "openstack" && stack != "eucalyptus" {
		panic("cloudapi: unsupported stack " + stack)
	}
	if client == nil {
		client = &http.Client{Timeout: DefaultTimeout}
	}
	return &Remote{name: name, stack: stack, endpoint: strings.TrimRight(endpoint, "/"), client: client}
}

// ProbeRemote builds a client for whatever cloud serves endpoint by asking
// its /cloudapi/meta discovery document for the name and stack — how
// tukey-server attaches an externally running cloud-site process it knows
// only by URL. client may be nil for a private client with DefaultTimeout.
func ProbeRemote(endpoint string, client *http.Client) (*Remote, error) {
	if client == nil {
		client = &http.Client{Timeout: DefaultTimeout}
	}
	resp, err := client.Get(strings.TrimRight(endpoint, "/") + "/cloudapi/meta")
	if err != nil {
		return nil, fmt.Errorf("cloudapi: probing %s: %w", endpoint, err)
	}
	defer resp.Body.Close()
	var m meta
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cloudapi: %s is not a cloud site (status %d, err %v)", endpoint, resp.StatusCode, err)
	}
	if m.Name == "" || (m.Stack != "openstack" && m.Stack != "eucalyptus") {
		return nil, fmt.Errorf("cloudapi: %s reported unusable meta %+v", endpoint, m)
	}
	return NewRemote(m.Name, m.Stack, endpoint, client), nil
}

// SetOperatorSecret makes every operator-plane write (quota updates, clock
// targets) carry the shared secret in the X-OSDC-Operator header — the
// client half of Server.OperatorSecret.
func (r *Remote) SetOperatorSecret(secret string) { r.secret = secret }

// operatorPost issues one operator-plane write with the secret header.
func (r *Remote) operatorPost(path, payload string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, r.endpoint+path, strings.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if r.secret != "" {
		req.Header.Set("X-OSDC-Operator", r.secret)
	}
	return r.client.Do(req)
}

// Name implements CloudAPI.
func (r *Remote) Name() string { return r.name }

// Stack implements CloudAPI.
func (r *Remote) Stack() string { return r.stack }

// Endpoint returns the base URL the client speaks to.
func (r *Remote) Endpoint() string { return r.endpoint }

// ec2ToOpenStack maps EC2 state names to OpenStack statuses — one of the
// §5.2 "rules of the configuration file".
func ec2ToOpenStack(s string) string {
	switch s {
	case "pending":
		return "BUILD"
	case "running":
		return "ACTIVE"
	case "stopped":
		return "SHUTOFF"
	case "terminated":
		return "TERMINATED"
	default:
		return strings.ToUpper(s)
	}
}

// launchError classifies a rejected launch: quota and capacity rejections
// keep their iaas error classes across the wire.
func (r *Remote) launchError(user, flavor string, status int, ecode, msg string) error {
	switch {
	case status == http.StatusForbidden || ecode == "InstanceLimitExceeded":
		return fmt.Errorf("cloudapi: %s: %w", r.name, iaas.ErrQuota{User: user, Reason: msg})
	case status == http.StatusConflict || ecode == "InsufficientInstanceCapacity":
		return fmt.Errorf("cloudapi: %s: %w", r.name, iaas.ErrCapacity{Flavor: flavor})
	}
	return fmt.Errorf("cloudapi: %s rejected launch (%d): %s", r.name, status, msg)
}

// --- the OpenStack JSON dialect ---

// novaWire is the wire form NovaAPI serves for one server.
type novaWire struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Status string `json:"status"`
	Flavor string `json:"flavorRef"`
	Image  string `json:"imageRef"`
	UserID string `json:"user_id"`
}

func (w novaWire) instance(user string) Instance {
	if w.UserID != "" {
		user = w.UserID
	}
	return Instance{ID: w.ID, Name: w.Name, User: user, Flavor: w.Flavor, Image: w.Image, Status: w.Status}
}

func (r *Remote) novaDo(method, path, body, user string) (*http.Response, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, r.endpoint+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Auth-User", user)
	return r.client.Do(req)
}

// novaFailMessage extracts the message from a Nova error envelope.
func novaFailMessage(body io.Reader) string {
	var fail struct {
		Error struct {
			Message string `json:"message"`
		} `json:"error"`
	}
	_ = json.NewDecoder(body).Decode(&fail)
	return fail.Error.Message
}

// novaRead issues one GET on the OpenStack dialect and decodes a 200 body
// into `into`. Any other status surfaces the site's error message in the
// shape the EC2 readers use, instead of decoding the error envelope into
// an empty listing.
func (r *Remote) novaRead(path, user string, into interface{}) error {
	resp, err := r.novaDo(http.MethodGet, path, "", user)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cloudapi: %s GET %s (%d): %s", r.name, path, resp.StatusCode, novaFailMessage(resp.Body))
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func (r *Remote) novaInstances(user string) ([]Instance, error) {
	var body struct {
		Servers []novaWire `json:"servers"`
	}
	if err := r.novaRead("/v2/servers", user, &body); err != nil {
		return nil, err
	}
	var out []Instance
	for _, s := range body.Servers {
		out = append(out, s.instance(user))
	}
	return out, nil
}

func (r *Remote) novaLaunch(user, name, flavor, image string) (Instance, error) {
	payload := fmt.Sprintf(`{"server":{"name":%q,"flavorRef":%q,"imageRef":%q}}`, name, flavor, image)
	resp, err := r.novaDo(http.MethodPost, "/v2/servers", payload, user)
	if err != nil {
		return Instance{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return Instance{}, r.launchError(user, flavor, resp.StatusCode, "", novaFailMessage(resp.Body))
	}
	var body struct {
		Server novaWire `json:"server"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return Instance{}, err
	}
	return body.Server.instance(user), nil
}

func (r *Remote) novaTerminate(user, id string) error {
	resp, err := r.novaDo(http.MethodDelete, "/v2/servers/"+id, "", user)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("cloudapi: terminate on %s returned %d", r.name, resp.StatusCode)
	}
	return nil
}

func (r *Remote) novaStop(user, id string) error {
	resp, err := r.novaDo(http.MethodPost, "/v2/servers/"+id+"/action", `{"os-stop": null}`, user)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("cloudapi: stop on %s returned %d", r.name, resp.StatusCode)
	}
	return nil
}

func (r *Remote) novaImages(user string) ([]Image, error) {
	var body struct {
		Images []Image `json:"images"`
	}
	if err := r.novaRead("/v2/images", user, &body); err != nil {
		return nil, err
	}
	return body.Images, nil
}

func (r *Remote) novaFlavors() ([]iaas.Flavor, error) {
	var body struct {
		Flavors []struct {
			Name   string `json:"name"`
			VCPUs  int    `json:"vcpus"`
			RAMMB  int    `json:"ram"`
			DiskGB int    `json:"disk"`
		} `json:"flavors"`
	}
	if err := r.novaRead("/v2/flavors", "flavor-reader", &body); err != nil {
		return nil, err
	}
	var out []iaas.Flavor
	for _, f := range body.Flavors {
		out = append(out, iaas.Flavor{Name: f.Name, VCPUs: f.VCPUs, RAMMB: f.RAMMB, DiskGB: f.DiskGB})
	}
	return out, nil
}

// --- the EC2 query/XML dialect ---

func (r *Remote) ec2Get(q url.Values) (int, []byte, error) {
	resp, err := r.client.Get(r.endpoint + "/?" + q.Encode())
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// ec2FailBody extracts the error code and message from an EC2 error
// response.
func ec2FailBody(raw []byte) (code, msg string) {
	var fail struct {
		Code    string `xml:"Errors>Error>Code"`
		Message string `xml:"Errors>Error>Message"`
	}
	_ = xml.Unmarshal(raw, &fail)
	return fail.Code, fail.Message
}

func (r *Remote) ec2Instances(user string) ([]Instance, error) {
	q := url.Values{"Action": {"DescribeInstances"}, "AWSAccessKeyId": {user}}
	status, raw, err := r.ec2Get(q)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		_, msg := ec2FailBody(raw)
		return nil, fmt.Errorf("cloudapi: %s DescribeInstances (%d): %s", r.name, status, msg)
	}
	var body struct {
		Reservations []struct {
			Items []struct {
				InstanceID   string `xml:"instanceId"`
				ImageID      string `xml:"imageId"`
				InstanceType string `xml:"instanceType"`
				StateName    string `xml:"instanceState>name"`
				KeyName      string `xml:"keyName"`
			} `xml:"instancesSet>item"`
		} `xml:"reservationSet>item"`
	}
	if err := xml.Unmarshal(raw, &body); err != nil {
		return nil, err
	}
	var out []Instance
	for _, res := range body.Reservations {
		for _, it := range res.Items {
			out = append(out, Instance{
				ID: it.InstanceID, Name: it.KeyName, User: user,
				Flavor: it.InstanceType, Image: it.ImageID, Status: ec2ToOpenStack(it.StateName),
			})
		}
	}
	return out, nil
}

func (r *Remote) ec2Launch(user, name, flavor, image string) (Instance, error) {
	q := url.Values{
		"Action": {"RunInstances"}, "AWSAccessKeyId": {user},
		"InstanceType": {flavor}, "KeyName": {name},
	}
	if image != "" {
		q.Set("ImageId", image)
	}
	status, raw, err := r.ec2Get(q)
	if err != nil {
		return Instance{}, err
	}
	if status != http.StatusOK {
		code, msg := ec2FailBody(raw)
		return Instance{}, r.launchError(user, flavor, status, code, msg)
	}
	var body struct {
		Items []struct {
			InstanceID string `xml:"instanceId"`
			ImageID    string `xml:"imageId"`
			Type       string `xml:"instanceType"`
			StateName  string `xml:"instanceState>name"`
			KeyName    string `xml:"keyName"`
		} `xml:"instancesSet>item"`
	}
	if err := xml.Unmarshal(raw, &body); err != nil {
		return Instance{}, err
	}
	if len(body.Items) == 0 {
		return Instance{}, fmt.Errorf("cloudapi: empty RunInstances response from %s", r.name)
	}
	it := body.Items[0]
	return Instance{
		ID: it.InstanceID, Name: it.KeyName, User: user,
		Flavor: it.Type, Image: it.ImageID, Status: ec2ToOpenStack(it.StateName),
	}, nil
}

func (r *Remote) ec2Terminate(user, id string) error {
	q := url.Values{"Action": {"TerminateInstances"}, "AWSAccessKeyId": {user}, "InstanceId.1": {id}}
	status, raw, err := r.ec2Get(q)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		_, msg := ec2FailBody(raw)
		return fmt.Errorf("cloudapi: terminate on %s returned %d: %s", r.name, status, msg)
	}
	return nil
}

func (r *Remote) ec2Stop(user, id string) error {
	q := url.Values{"Action": {"StopInstances"}, "AWSAccessKeyId": {user}, "InstanceId.1": {id}}
	status, raw, err := r.ec2Get(q)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		_, msg := ec2FailBody(raw)
		return fmt.Errorf("cloudapi: stop on %s returned %d: %s", r.name, status, msg)
	}
	return nil
}

func (r *Remote) ec2Images(user string) ([]Image, error) {
	q := url.Values{"Action": {"DescribeImages"}, "AWSAccessKeyId": {user}}
	status, raw, err := r.ec2Get(q)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		_, msg := ec2FailBody(raw)
		return nil, fmt.Errorf("cloudapi: %s DescribeImages (%d): %s", r.name, status, msg)
	}
	var body struct {
		Images []struct {
			ImageID string `xml:"imageId"`
			Name    string `xml:"name"`
			Public  bool   `xml:"isPublic"`
		} `xml:"imagesSet>item"`
	}
	if err := xml.Unmarshal(raw, &body); err != nil {
		return nil, err
	}
	var out []Image
	for _, im := range body.Images {
		out = append(out, Image{ID: im.ImageID, Name: im.Name, Public: im.Public})
	}
	return out, nil
}

// --- the operator plane (JSON, stack-independent) ---

func (r *Remote) operatorGet(path string, into interface{}) (int, error) {
	resp, err := r.client.Get(r.endpoint + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(into)
}

// --- CloudAPI ---

// Launch implements CloudAPI via the native dialect.
func (r *Remote) Launch(user, name, flavor, image string) (Instance, error) {
	if r.stack == "eucalyptus" {
		return r.ec2Launch(user, name, flavor, image)
	}
	return r.novaLaunch(user, name, flavor, image)
}

// Terminate implements CloudAPI via the native dialect.
func (r *Remote) Terminate(user, id string) error {
	if r.stack == "eucalyptus" {
		return r.ec2Terminate(user, id)
	}
	return r.novaTerminate(user, id)
}

// Stop implements CloudAPI via the native dialect.
func (r *Remote) Stop(user, id string) error {
	if r.stack == "eucalyptus" {
		return r.ec2Stop(user, id)
	}
	return r.novaStop(user, id)
}

// Instances implements CloudAPI via the native dialect.
func (r *Remote) Instances(user string) ([]Instance, error) {
	if r.stack == "eucalyptus" {
		return r.ec2Instances(user)
	}
	return r.novaInstances(user)
}

// Images implements CloudAPI via the native dialect.
func (r *Remote) Images(user string) ([]Image, error) {
	if r.stack == "eucalyptus" {
		return r.ec2Images(user)
	}
	return r.novaImages(user)
}

// Flavors implements CloudAPI: the OpenStack dialect lists flavors
// natively; EC2 never did, so the eucalyptus path uses the operator plane.
func (r *Remote) Flavors() ([]iaas.Flavor, error) {
	if r.stack == "openstack" {
		return r.novaFlavors()
	}
	var body struct {
		Flavors []iaas.Flavor `json:"flavors"`
	}
	status, err := r.operatorGet("/cloudapi/flavors", &body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("cloudapi: %s flavors returned %d", r.name, status)
	}
	return body.Flavors, nil
}

// Instance implements CloudAPI via the operator plane.
func (r *Remote) Instance(id string) (Instance, error) {
	var inst Instance
	status, err := r.operatorGet("/cloudapi/instance?id="+url.QueryEscape(id), &inst)
	if err != nil {
		return Instance{}, err
	}
	if status == http.StatusNotFound {
		return Instance{}, ErrNotFound
	}
	if status != http.StatusOK {
		return Instance{}, fmt.Errorf("cloudapi: %s instance lookup returned %d", r.name, status)
	}
	return inst, nil
}

// SetQuota implements CloudAPI via the operator plane.
func (r *Remote) SetQuota(user string, q iaas.Quota) error {
	payload := fmt.Sprintf(`{"user":%q,"max_instances":%d,"max_cores":%d}`, user, q.MaxInstances, q.MaxCores)
	resp, err := r.operatorPost("/cloudapi/quota", payload)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("cloudapi: %s quota update returned %d", r.name, resp.StatusCode)
	}
	return nil
}

// Clock reads the site's clock plane: the site engine's current virtual
// time, mode, and (follow mode) newest target.
func (r *Remote) Clock() (ClockStatus, error) {
	var st ClockStatus
	status, err := r.operatorGet("/cloudapi/clock", &st)
	if err != nil {
		return ClockStatus{}, err
	}
	if status != http.StatusOK {
		return ClockStatus{}, fmt.Errorf("cloudapi: %s clock read returned %d", r.name, status)
	}
	return st, nil
}

// ClockSync publishes a target virtual time on the site's clock plane. A
// free-running site answers 409, surfaced as ErrFreeRunning so a
// coordinator can tell "does not follow" from "unreachable".
func (r *Remote) ClockSync(target sim.Time) error {
	payload := fmt.Sprintf(`{"target":%g}`, float64(target))
	resp, err := r.operatorPost("/cloudapi/clock", payload)
	if err != nil {
		return err
	}
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil
	case http.StatusConflict:
		return fmt.Errorf("cloudapi: %s: %w", r.name, ErrFreeRunning)
	}
	return fmt.Errorf("cloudapi: %s clock sync returned %d", r.name, resp.StatusCode)
}

// Usage implements CloudAPI via the operator plane. The first call takes
// a full snapshot; later calls advance it with ?since=rev deltas, so a
// steady-state poll over an unchanged cloud ships an empty delta instead
// of the whole per-user map. Any wire failure on the delta path falls
// back to a fresh full fetch, so the result is always what a full GET
// would have returned.
func (r *Remote) Usage() (Usage, error) {
	r.usageMu.Lock()
	defer r.usageMu.Unlock()
	if r.haveUsage {
		if d, err := r.UsageSince(r.usageRev); err == nil {
			r.deltaHits.Add(1)
			r.applyDelta(d)
			return r.snapshotUsage(d.UsedCores, d.TotalCores), nil
		}
		// The delta path failed (site unreachable, or it restarted with a
		// rev behind ours and rejected the since) — drop the snapshot and
		// resync in full below.
		r.deltaResets.Add(1)
		r.haveUsage = false
		r.usageSnap = nil
	}
	var u Usage
	status, err := r.operatorGet("/cloudapi/usage", &u)
	if err != nil {
		return Usage{}, err
	}
	if status != http.StatusOK {
		return Usage{}, fmt.Errorf("cloudapi: %s usage returned %d", r.name, status)
	}
	r.usageRev = u.Rev
	r.usageSnap = make(map[string]UserUsage, len(u.ByUser))
	for user, v := range u.ByUser {
		r.usageSnap[user] = v
	}
	r.haveUsage = true
	return u, nil
}

// applyDelta folds one UsageSince result into the cached snapshot.
// Callers hold usageMu.
func (r *Remote) applyDelta(d UsageDelta) {
	if d.Reset {
		r.usageSnap = make(map[string]UserUsage, len(d.Changed))
	}
	for user, v := range d.Changed {
		r.usageSnap[user] = v
	}
	for _, user := range d.Removed {
		delete(r.usageSnap, user)
	}
	r.usageRev = d.Rev
	r.haveUsage = true
}

// snapshotUsage copies the cached per-user map into a fresh Usage so
// callers never alias the cache. Callers hold usageMu.
func (r *Remote) snapshotUsage(usedCores, totalCores int) Usage {
	u := Usage{
		Rev:        r.usageRev,
		ByUser:     make(map[string]UserUsage, len(r.usageSnap)),
		UsedCores:  usedCores,
		TotalCores: totalCores,
	}
	for user, v := range r.usageSnap {
		u.ByUser[user] = v
	}
	return u
}

// UsageDeltaStats reports the delta-maintained usage cache's health:
// polls advanced by a delta versus cache drops that forced a full resync.
func (r *Remote) UsageDeltaStats() (hits, resets int64) {
	return r.deltaHits.Load(), r.deltaResets.Load()
}

// UsageSince implements CloudAPI via the operator plane's ?since= form.
// Server-reported rejections (a negative since) surface with the Local
// backend's error text, verbatim.
func (r *Remote) UsageSince(since int64) (UsageDelta, error) {
	resp, err := r.client.Get(fmt.Sprintf("%s/cloudapi/usage?since=%d", r.endpoint, since))
	if err != nil {
		return UsageDelta{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var fail struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&fail) == nil && fail.Error != "" {
			return UsageDelta{}, errors.New(fail.Error)
		}
		return UsageDelta{}, fmt.Errorf("cloudapi: %s usage delta returned %d", r.name, resp.StatusCode)
	}
	var d UsageDelta
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return UsageDelta{}, err
	}
	return d, nil
}
