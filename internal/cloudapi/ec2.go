package cloudapi

import (
	"encoding/xml"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"osdc/internal/iaas"
	"osdc/internal/wire"
)

// The Eucalyptus/EC2 query dialect, the second one Tukey's translation
// proxies handle (§5.2), different in shape on purpose: actions are query
// parameters on a GET, responses are XML, listings come wrapped in
// reservations, and the caller arrives as AWSAccessKeyId. The site serves
// RunInstances, DescribeInstances, StopInstances, TerminateInstances and
// DescribeImages with serveEC2; Remote reads all but DescribeImages, which
// is served for raw clients, with ec2, through the declarations below.

// ec2Instance is the wire form of one instance.
type ec2Instance struct {
	InstanceID   string `xml:"instanceId"`
	ImageID      string `xml:"imageId"`
	InstanceType string `xml:"instanceType"`
	StateName    string `xml:"instanceState>name"`
	KeyName      string `xml:"keyName"`
}

func toEC2Instance(i *iaas.Instance) ec2Instance {
	return ec2Instance{
		InstanceID: i.ID, ImageID: i.ImageID,
		InstanceType: i.Flavor.Name, StateName: ec2StateName(i.State), KeyName: i.Name,
	}
}

func (it ec2Instance) instance() Instance {
	return Instance{ID: it.InstanceID, Name: it.KeyName, Flavor: it.InstanceType, Status: openStackStatus(it.StateName)}
}

type ec2Reservation struct {
	OwnerID string        `xml:"ownerId"`
	Items   []ec2Instance `xml:"instancesSet>item"`
}

type ec2Image struct {
	ImageID string `xml:"imageId"`
	Name    string `xml:"name"`
	Public  bool   `xml:"isPublic"`
}

// The response bodies.
type (
	ec2RunInstances struct {
		XMLName xml.Name      `xml:"RunInstancesResponse"`
		Items   []ec2Instance `xml:"instancesSet>item"`
	}
	ec2DescribeInstances struct {
		XMLName      xml.Name         `xml:"DescribeInstancesResponse"`
		Reservations []ec2Reservation `xml:"reservationSet>item"`
	}
	// ec2StateChange answers TerminateInstances and StopInstances, under
	// the action's own response name.
	ec2StateChange struct {
		XMLName xml.Name
		ID      string `xml:"instancesSet>item>instanceId"`
		State   string `xml:"instancesSet>item>currentState>name"`
	}
	ec2DescribeImages struct {
		XMLName xml.Name   `xml:"DescribeImagesResponse"`
		Images  []ec2Image `xml:"imagesSet>item"`
	}
)

// ec2Fail is the dialect's error envelope.
type ec2Fail struct {
	XMLName xml.Name `xml:"Response"`
	Code    string   `xml:"Errors>Error>Code"`
	Message string   `xml:"Errors>Error>Message"`
}

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

func writeXML(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "text/xml")
	w.WriteHeader(code)
	fmt.Fprint(w, xml.Header)
	_ = xml.NewEncoder(w).Encode(v)
}

func ec2Error(w http.ResponseWriter, code int, ecode, msg string) {
	writeXML(w, code, ec2Fail{Code: ecode, Message: msg})
}

// serveEC2 answers one request of the dialect against the site's cloud.
func (s *Server) serveEC2(w http.ResponseWriter, r *http.Request) {
	c := s.local.C
	q := r.URL.Query()
	user := q.Get("AWSAccessKeyId")
	if user == "" {
		ec2Error(w, http.StatusUnauthorized, "AuthFailure", "missing AWSAccessKeyId")
		return
	}
	switch action := q.Get("Action"); action {
	case "RunInstances":
		inst, err := launch(c, user, q.Get("KeyName"), q.Get("InstanceType"), q.Get("ImageId"))
		if err != nil {
			status := launchStatus(err)
			ec2Error(w, status, ec2LaunchCodes[status], err.Error())
			return
		}
		writeXML(w, http.StatusOK, ec2RunInstances{Items: []ec2Instance{toEC2Instance(inst)}})

	case "DescribeInstances":
		var items []ec2Instance
		for _, i := range c.Instances(user) {
			items = append(items, toEC2Instance(i))
		}
		writeXML(w, http.StatusOK, ec2DescribeInstances{
			Reservations: []ec2Reservation{{OwnerID: user, Items: items}},
		})

	case "StopInstances", "TerminateInstances":
		id := q.Get("InstanceId.1")
		change, state := c.Stop, "stopping"
		if action == "TerminateInstances" {
			change, state = c.Terminate, "terminated"
		}
		if err := change(user, id); err != nil {
			ec2Error(w, http.StatusNotFound, "InvalidInstanceID.NotFound", err.Error())
			return
		}
		writeXML(w, http.StatusOK, ec2StateChange{XMLName: xml.Name{Local: action + "Response"}, ID: id, State: state})

	case "DescribeImages":
		var imgs []ec2Image
		for _, im := range c.Images() {
			imgs = append(imgs, ec2Image{ImageID: im.ID, Name: im.Name, Public: im.Public})
		}
		writeXML(w, http.StatusOK, ec2DescribeImages{Images: imgs})

	default:
		ec2Error(w, http.StatusBadRequest, "InvalidAction", "unknown action "+action)
	}
}

// ec2 makes one round trip on the dialect: q names the action and the
// caller, an answer over wire.MaxBodyBytes is an error, and a 200
// answer decodes into out (nil discards it). Any other answer is an error
// naming the action, the status and the site's message; status and msg
// come back too, so a launch can rebuild the refusal's class.
func (r *Remote) ec2(q url.Values, out any) (status int, msg string, err error) {
	resp, err := r.client.Get(r.endpoint + "/?" + q.Encode())
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	// Read whole, then unmarshalled: an xml.Decoder on the stream would
	// allocate a 4 KB buffer for a body a tenth of that.
	raw, err := wire.ReadBody(resp.Body)
	switch {
	case err != nil:
		return 0, "", err
	case resp.StatusCode != http.StatusOK:
		var fail ec2Fail
		_ = xml.Unmarshal(raw, &fail)
		return resp.StatusCode, fail.Message, r.refusedCall(q.Get("Action"), resp.StatusCode, fail.Message)
	case out != nil:
		err = xml.Unmarshal(raw, out)
	}
	return resp.StatusCode, "", err
}

func (r *Remote) ec2Instances(user string) ([]Instance, error) {
	var body ec2DescribeInstances
	if _, _, err := r.ec2(url.Values{"Action": {"DescribeInstances"}, "AWSAccessKeyId": {user}}, &body); err != nil {
		return nil, err
	}
	var out []Instance
	for _, res := range body.Reservations {
		for _, it := range res.Items {
			out = append(out, it.instance())
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
	var body ec2RunInstances
	status, msg, err := r.ec2(q, &body)
	if status != 0 && status != http.StatusOK {
		return Instance{}, r.launchError(user, flavor, status, msg)
	}
	if err != nil {
		return Instance{}, err
	}
	if len(body.Items) == 0 {
		return Instance{}, fmt.Errorf("cloudapi: empty RunInstances response from %s", r.name)
	}
	return body.Items[0].instance(), nil
}
