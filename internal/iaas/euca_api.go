package iaas

import (
	"encoding/xml"
	"fmt"
	"net/http"
)

// EucaAPI serves a Eucalyptus-style EC2 query API over a Cloud: actions are
// query parameters, responses are XML. This is the second wire dialect
// Tukey's translation proxies must handle (§5.2); it is deliberately
// different in shape from NovaAPI (GET+query vs REST+JSON, XML vs JSON,
// reservation wrapping vs flat lists).
//
// Supported actions: RunInstances, DescribeInstances, StopInstances,
// TerminateInstances, DescribeImages. The caller identity arrives as
// AWSAccessKeyId.
type EucaAPI struct {
	Cloud *Cloud
}

type ec2Instance struct {
	XMLName      xml.Name `xml:"item"`
	InstanceID   string   `xml:"instanceId"`
	ImageID      string   `xml:"imageId"`
	InstanceType string   `xml:"instanceType"`
	StateName    string   `xml:"instanceState>name"`
	KeyName      string   `xml:"keyName"`
}

type ec2Reservation struct {
	XMLName xml.Name      `xml:"item"`
	OwnerID string        `xml:"ownerId"`
	Items   []ec2Instance `xml:"instancesSet>item"`
}

// RunInstancesResponse is the EC2 wire response for RunInstances.
type RunInstancesResponse struct {
	XMLName xml.Name      `xml:"RunInstancesResponse"`
	Items   []ec2Instance `xml:"instancesSet>item"`
}

// DescribeInstancesResponse is the EC2 wire response for DescribeInstances.
type DescribeInstancesResponse struct {
	XMLName      xml.Name         `xml:"DescribeInstancesResponse"`
	Reservations []ec2Reservation `xml:"reservationSet>item"`
}

// TerminateInstancesResponse is the EC2 wire response.
type TerminateInstancesResponse struct {
	XMLName xml.Name `xml:"TerminateInstancesResponse"`
	ID      string   `xml:"instancesSet>item>instanceId"`
	State   string   `xml:"instancesSet>item>currentState>name"`
}

// StopInstancesResponse is the EC2 wire response.
type StopInstancesResponse struct {
	XMLName xml.Name `xml:"StopInstancesResponse"`
	ID      string   `xml:"instancesSet>item>instanceId"`
	State   string   `xml:"instancesSet>item>currentState>name"`
}

type ec2Image struct {
	XMLName xml.Name `xml:"item"`
	ImageID string   `xml:"imageId"`
	Name    string   `xml:"name"`
	Public  bool     `xml:"isPublic"`
}

// DescribeImagesResponse is the EC2 wire response.
type DescribeImagesResponse struct {
	XMLName xml.Name   `xml:"DescribeImagesResponse"`
	Images  []ec2Image `xml:"imagesSet>item"`
}

type ec2Error struct {
	XMLName xml.Name `xml:"Response"`
	Code    string   `xml:"Errors>Error>Code"`
	Message string   `xml:"Errors>Error>Message"`
}

// ec2State maps internal states to EC2 names.
func ec2State(s InstanceState) string {
	switch s {
	case StateBuild:
		return "pending"
	case StateActive:
		return "running"
	case StateShutoff:
		return "stopped"
	case StateTerminated:
		return "terminated"
	default:
		return "error"
	}
}

func writeXML(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "text/xml")
	w.WriteHeader(code)
	fmt.Fprint(w, xml.Header)
	_ = xml.NewEncoder(w).Encode(v)
}

func ec2Fail(w http.ResponseWriter, code int, ecode, msg string) {
	writeXML(w, code, ec2Error{Code: ecode, Message: msg})
}

// ServeHTTP implements http.Handler.
func (a *EucaAPI) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	user := q.Get("AWSAccessKeyId")
	if user == "" {
		ec2Fail(w, http.StatusUnauthorized, "AuthFailure", "missing AWSAccessKeyId")
		return
	}
	switch q.Get("Action") {
	case "RunInstances":
		flavor := q.Get("InstanceType")
		image := q.Get("ImageId")
		name := q.Get("KeyName")
		inst, err := a.Cloud.Launch(user, name, flavor, image)
		if err != nil {
			code, ecode := http.StatusBadRequest, "InvalidParameterValue"
			switch err.(type) {
			case ErrQuota:
				code, ecode = http.StatusForbidden, "InstanceLimitExceeded"
			case ErrCapacity:
				code, ecode = http.StatusConflict, "InsufficientInstanceCapacity"
			}
			ec2Fail(w, code, ecode, err.Error())
			return
		}
		writeXML(w, http.StatusOK, RunInstancesResponse{Items: []ec2Instance{{
			InstanceID: inst.ID, ImageID: inst.ImageID,
			InstanceType: inst.Flavor.Name, StateName: ec2State(inst.State), KeyName: inst.Name,
		}}})

	case "DescribeInstances":
		var items []ec2Instance
		for _, i := range a.Cloud.Instances(user) {
			items = append(items, ec2Instance{
				InstanceID: i.ID, ImageID: i.ImageID,
				InstanceType: i.Flavor.Name, StateName: ec2State(i.State), KeyName: i.Name,
			})
		}
		writeXML(w, http.StatusOK, DescribeInstancesResponse{
			Reservations: []ec2Reservation{{OwnerID: user, Items: items}},
		})

	case "StopInstances":
		id := q.Get("InstanceId.1")
		if err := a.Cloud.Stop(user, id); err != nil {
			ec2Fail(w, http.StatusNotFound, "InvalidInstanceID.NotFound", err.Error())
			return
		}
		writeXML(w, http.StatusOK, StopInstancesResponse{ID: id, State: "stopping"})

	case "TerminateInstances":
		id := q.Get("InstanceId.1")
		if err := a.Cloud.Terminate(user, id); err != nil {
			ec2Fail(w, http.StatusNotFound, "InvalidInstanceID.NotFound", err.Error())
			return
		}
		writeXML(w, http.StatusOK, TerminateInstancesResponse{ID: id, State: "terminated"})

	case "DescribeImages":
		var imgs []ec2Image
		for _, im := range a.Cloud.Images(user) {
			imgs = append(imgs, ec2Image{ImageID: im.ID, Name: im.Name, Public: im.Public})
		}
		writeXML(w, http.StatusOK, DescribeImagesResponse{Images: imgs})

	default:
		ec2Fail(w, http.StatusBadRequest, "InvalidAction", "unknown action "+q.Get("Action"))
	}
}
