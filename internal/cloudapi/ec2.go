package cloudapi

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"osdc/internal/iaas"
	"osdc/internal/wire"
)

// The Eucalyptus/EC2 query dialect, the second one Tukey's translation
// proxies handle (§5.2), different in shape on purpose: actions are query
// parameters on a GET, responses are XML, listings come wrapped in
// reservations, and the caller arrives as AWSAccessKeyId. The site serves
// RunInstances, DescribeInstances, StopInstances, TerminateInstances and
// DescribeImages with serveEC2; Remote reads all but DescribeImages, which
// is served for raw clients, with ec2. Neither direction uses reflection:
// each answer is one of the forms below, which the site fills into a
// pooled ec2Body and Remote matches in one strict pass of an ec2Reader.
// FuzzEC2CodecMatchesEncodingXML holds both to encoding/xml's bytes.

// ec2States names each instance state in EC2's words: the site reads it
// forwards, Remote backwards (one of the §5.2 "rules of the configuration
// file").
var ec2States = [...]struct {
	state iaas.InstanceState
	name  string
}{
	{iaas.StateBuild, "pending"},
	{iaas.StateActive, "running"},
	{iaas.StateShutoff, "stopped"},
	{iaas.StateTerminated, "terminated"},
	{iaas.StateError, "error"},
}

func ec2StateName(s iaas.InstanceState) string {
	for _, e := range ec2States {
		if e.state == s {
			return e.name
		}
	}
	return "error"
}

// openStackStatus is the OpenStack status for an EC2 state name; a name
// the table lacks reads upper-cased.
func openStackStatus(name string) string {
	for _, e := range ec2States {
		if e.name == name {
			return string(e.state)
		}
	}
	return strings.ToUpper(name)
}

// ec2LaunchCodes is the error code a refused launch carries beside its
// launchStatus.
var ec2LaunchCodes = map[int]string{
	http.StatusForbidden:  "InstanceLimitExceeded",
	http.StatusConflict:   "InsufficientInstanceCapacity",
	http.StatusBadRequest: "InvalidParameterValue",
}

// xmlHeader opens every answer; it is encoding/xml's Header.
const xmlHeader = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"

// The dialect's answers, each declared once for the site that fills it and
// the Remote that reads it back: a % is one escaped text, and the rest is
// written and expected byte for byte. A listing is its head, an item per
// entry and its tail; a state change's first and last texts are the action.
const (
	ec2Item = "<item><instanceId>%</instanceId><imageId>%</imageId><instanceType>%</instanceType>" +
		"<instanceState><name>%</name></instanceState><keyName>%</keyName></item>"
	ec2Run         = "<RunInstancesResponse><instancesSet>" + ec2Item + "</instancesSet></RunInstancesResponse>"
	ec2ListHead    = "<DescribeInstancesResponse><reservationSet><item><ownerId>%</ownerId><instancesSet>"
	ec2ListTail    = "</instancesSet></item></reservationSet></DescribeInstancesResponse>"
	ec2StateChange = "<%Response><instancesSet><item><instanceId>%</instanceId><currentState><name>%</name></currentState></item></instancesSet></%Response>"
	ec2ImagesHead  = "<DescribeImagesResponse><imagesSet>"
	ec2Image       = "<item><imageId>%</imageId><name>%</name><isPublic>%</isPublic></item>"
	ec2ImagesTail  = "</imagesSet></DescribeImagesResponse>"
	ec2Fail        = "<Response><Errors><Error><Code>%</Code><Message>%</Message></Error></Errors></Response>"
)

// ec2Body is one answer being written.
type ec2Body struct{ b []byte }

// ec2Bodies pools the answers' buffers; one grown past ec2BodyMax is left
// to the collector rather than held.
var ec2Bodies = sync.Pool{New: func() any { return new(ec2Body) }}

const ec2BodyMax = 64 << 10

// newEC2Body takes a buffer from the pool, holding the XML header.
func newEC2Body() *ec2Body {
	x := ec2Bodies.Get().(*ec2Body)
	x.b = append(x.b[:0], xmlHeader...)
	return x
}

func (x *ec2Body) free() {
	if cap(x.b) <= ec2BodyMax {
		ec2Bodies.Put(x)
	}
}

// fill writes form with each % replaced by the next of texts, escaped.
func (x *ec2Body) fill(form string, texts ...string) {
	for _, t := range texts {
		lit, rest, _ := strings.Cut(form, "%")
		x.b = appendEscaped(append(x.b, lit...), t)
		form = rest
	}
	x.b = append(x.b, form...)
}

// instance writes i as form, which holds ec2Item's texts.
func (x *ec2Body) instance(form string, i *iaas.Instance) {
	x.fill(form, i.ID, i.ImageID, i.Flavor.Name, ec2StateName(i.State), i.Name)
}

func (x *ec2Body) describeInstances(user string, insts []*iaas.Instance) {
	x.fill(ec2ListHead, user)
	for _, i := range insts {
		x.instance(ec2Item, i)
	}
	x.fill(ec2ListTail)
}

func (x *ec2Body) describeImages(imgs []*iaas.Image) {
	x.fill(ec2ImagesHead)
	for _, im := range imgs {
		x.fill(ec2Image, im.ID, im.Name, strconv.FormatBool(im.Public))
	}
	x.fill(ec2ImagesTail)
}

// fail writes the dialect's error envelope and returns status.
func (x *ec2Body) fail(status int, code, msg string) int {
	x.fill(ec2Fail, code, msg)
	return status
}

// xmlChar reports whether XML 1.0 can carry r.
func xmlChar(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' || r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= utf8.MaxRune
}

// xmlEscapes are the characters xml.EscapeText writes as references.
var xmlEscapes = [...]string{'"': "&#34;", '\'': "&#39;", '&': "&amp;", '<': "&lt;", '>': "&gt;", '\t': "&#x9;", '\n': "&#xA;", '\r': "&#xD;"}

// appendEscaped appends s escaped as xml.EscapeText escapes it: the
// xmlEscapes as references, and a rune XML cannot carry, or a byte that is
// not UTF-8, as U+FFFD.
func appendEscaped(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRuneInString(s[i:])
		i += width
		esc := "\uFFFD"
		if int(r) < len(xmlEscapes) && xmlEscapes[r] != "" {
			esc = xmlEscapes[r]
		} else if xmlChar(r) && (r != utf8.RuneError || width > 1) {
			continue
		}
		b = append(append(b, s[last:i-width]...), esc...)
		last = i
	}
	return append(b, s[last:]...)
}

// serveEC2 answers one request of the dialect against the site's cloud,
// in one Write of a pooled buffer.
func (s *Server) serveEC2(w http.ResponseWriter, r *http.Request) {
	x := newEC2Body()
	code := s.answerEC2(x, r.URL.Query())
	w.Header().Set("Content-Type", "text/xml")
	w.WriteHeader(code)
	_, _ = w.Write(x.b)
	x.free()
}

// answerEC2 writes the answer to the query q into x and returns its status.
func (s *Server) answerEC2(x *ec2Body, q url.Values) int {
	c := s.local.C
	user := q.Get("AWSAccessKeyId")
	if user == "" {
		return x.fail(http.StatusUnauthorized, "AuthFailure", "missing AWSAccessKeyId")
	}
	switch action := q.Get("Action"); action {
	case "RunInstances":
		inst, err := launch(c, user, q.Get("KeyName"), q.Get("InstanceType"), q.Get("ImageId"))
		if err != nil {
			status := launchStatus(err)
			return x.fail(status, ec2LaunchCodes[status], err.Error())
		}
		x.instance(ec2Run, inst)

	case "DescribeInstances":
		x.describeInstances(user, c.Instances(user))

	case "StopInstances", "TerminateInstances":
		id := q.Get("InstanceId.1")
		change, state := c.Stop, "stopping"
		if action == "TerminateInstances" {
			change, state = c.Terminate, "terminated"
		}
		if err := change(user, id); err != nil {
			return x.fail(http.StatusNotFound, "InvalidInstanceID.NotFound", err.Error())
		}
		x.fill(ec2StateChange, action, id, state, action)

	case "DescribeImages":
		x.describeImages(c.Images())

	default:
		return x.fail(http.StatusBadRequest, "InvalidAction", "unknown action "+action)
	}
	return http.StatusOK
}

// ec2Reader reads an answer back in one strict pass: after an optional XML
// header, the body must be exactly what the site writes, and the first
// deviation sticks in err. A text is a substring of the body, unescaped
// only when it holds a reference.
type ec2Reader struct {
	s   string // what is left to read
	n   int    // the body's length, to place a deviation
	err error
}

// ec2Text is what a reader reads: a Remote's answer, already copied out of
// the pooled read buffer as a string, or bytes.
type ec2Text interface{ []byte | string }

func readEC2[B ec2Text](body B) ec2Reader {
	s := string(body)
	return ec2Reader{s: strings.TrimPrefix(s, xmlHeader), n: len(s)}
}

func (r *ec2Reader) fail(want string) {
	if r.err == nil {
		r.err = fmt.Errorf("cloudapi: malformed EC2 response: want %q at byte %d", want, r.n-len(r.s))
	}
}

// match reads form, storing the text at each % through the next of texts.
// A text runs to the next tag, which the rest of form must then match.
func (r *ec2Reader) match(form string, texts ...*string) {
	for _, t := range texts {
		lit, rest, _ := strings.Cut(form, "%")
		r.expect(lit)
		text, _, _ := strings.Cut(r.s, "<")
		r.s, form = r.s[len(text):], rest
		if *t = text; strings.Contains(text, "&") {
			*t = r.unescape(text)
		}
	}
	r.expect(form)
}

// expect reads lit, which the body must go on with.
func (r *ec2Reader) expect(lit string) {
	rest, ok := strings.CutPrefix(r.s, lit)
	if !ok {
		r.fail(lit)
	}
	r.s = rest
}

var xmlEntities = map[string]rune{"lt": '<', "gt": '>', "amp": '&', "apos": '\'', "quot": '"'}

// unescape resolves t's references: the five predefined entities and
// numeric references to characters XML can carry.
func (r *ec2Reader) unescape(t string) string {
	var b strings.Builder
	for {
		before, after, found := strings.Cut(t, "&")
		b.WriteString(before)
		if !found {
			return b.String()
		}
		ref, rest, ok := strings.Cut(after, ";")
		c := xmlRef(ref)
		if !ok || c < 0 {
			r.fail("a reference")
			return ""
		}
		b.WriteRune(c)
		t = rest
	}
}

// xmlRef is the character the reference &ref; stands for, or -1 when ref
// is neither a predefined entity nor a numeric reference (#N or #xH) to a
// character XML can carry.
func xmlRef(ref string) rune {
	if c, ok := xmlEntities[ref]; ok {
		return c
	}
	digits, base := strings.TrimPrefix(ref, "#"), 10
	if hex, ok := strings.CutPrefix(digits, "x"); ok {
		digits, base = hex, 16
	}
	n, err := strconv.ParseUint(digits, base, 32)
	if err != nil || !strings.HasPrefix(ref, "#") || !xmlChar(rune(n)) {
		return -1
	}
	return rune(n)
}

// done is the reader's verdict: nil only when the whole body was read.
func (r *ec2Reader) done() error {
	if r.s != "" {
		r.fail("the end")
	}
	return r.err
}

// instance reads one instance written as form, which holds ec2Item's texts.
func (r *ec2Reader) instance(form string) Instance {
	var inst Instance
	var image, state string
	r.match(form, &inst.ID, &image, &inst.Flavor, &state, &inst.Name)
	inst.Status = openStackStatus(state)
	return inst
}

func readRunInstances[B ec2Text](body B) (Instance, error) {
	r := readEC2(body)
	inst := r.instance(ec2Run)
	if err := r.done(); err != nil {
		return Instance{}, err
	}
	return inst, nil
}

func readDescribeInstances[B ec2Text](body B) ([]Instance, error) {
	r := readEC2(body)
	var owner string
	r.match(ec2ListHead, &owner)
	var out []Instance
	for r.err == nil && strings.HasPrefix(r.s, "<item>") {
		out = append(out, r.instance(ec2Item))
	}
	r.match(ec2ListTail)
	if err := r.done(); err != nil {
		return nil, err
	}
	return out, nil
}

// readFail is the message of an error envelope, "" for a body that is not
// one.
func readFail(body []byte) string {
	r := readEC2(body)
	var code, msg string
	r.match(ec2Fail, &code, &msg)
	if r.done() != nil {
		return ""
	}
	return msg
}

// ec2 makes one round trip on the dialect. The query carries user, action
// and params, name/value pairs whose names sort after "Action", in order,
// so that it reads as url.Values.Encode writes it. An answer over
// wire.MaxBodyBytes is an error, and a 200 answer's body comes back whole,
// copied out of the pooled read buffer.
// Any other answer is an error naming the action, the status and the
// site's message; status and msg come back too, so a launch can rebuild
// the refusal's class.
func (r *Remote) ec2(action, user string, params ...string) (body string, status int, msg string, err error) {
	q := append(make([]byte, 0, 256), r.endpoint...)
	q = append(append(q, "/?AWSAccessKeyId="...), url.QueryEscape(user)...)
	q = append(append(q, "&Action="...), action...)
	for i := 0; i+1 < len(params); i += 2 {
		q = append(append(append(append(q, '&'), params[i]...), '='), url.QueryEscape(params[i+1])...)
	}
	resp, err := r.client.Get(string(q))
	if err != nil {
		return "", 0, "", err
	}
	defer resp.Body.Close()
	b, err := wire.ReadBody(resp.Body)
	if err != nil {
		return "", 0, "", err
	}
	defer b.Release()
	if resp.StatusCode != http.StatusOK {
		msg = readFail(b.Bytes())
		return "", resp.StatusCode, msg, r.refusedCall(action, resp.StatusCode, msg)
	}
	return string(b.Bytes()), resp.StatusCode, "", nil
}

func (r *Remote) ec2Instances(user string) ([]Instance, error) {
	raw, _, _, err := r.ec2("DescribeInstances", user)
	if err != nil {
		return nil, err
	}
	return readDescribeInstances(raw)
}

func (r *Remote) ec2Launch(user, name, flavor, image string) (Instance, error) {
	params := []string{"ImageId", image, "InstanceType", flavor, "KeyName", name}
	if image == "" {
		params = params[2:]
	}
	raw, status, msg, err := r.ec2("RunInstances", user, params...)
	if status != 0 && status != http.StatusOK {
		return Instance{}, r.launchError(user, flavor, status, msg)
	}
	if err != nil {
		return Instance{}, err
	}
	return readRunInstances(raw)
}
