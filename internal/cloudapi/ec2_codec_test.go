package cloudapi

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"osdc/internal/iaas"
)

// The EC2 codec's oracle is encoding/xml over the reflection structs the
// dialect was once declared with, kept here and nowhere else.

type oldInstance struct {
	InstanceID   string `xml:"instanceId"`
	ImageID      string `xml:"imageId"`
	InstanceType string `xml:"instanceType"`
	StateName    string `xml:"instanceState>name"`
	KeyName      string `xml:"keyName"`
}

func toOldInstance(i *iaas.Instance) oldInstance {
	return oldInstance{
		InstanceID: i.ID, ImageID: i.ImageID,
		InstanceType: i.Flavor.Name, StateName: ec2StateName(i.State), KeyName: i.Name,
	}
}

func (it oldInstance) instance() Instance {
	return Instance{ID: it.InstanceID, Name: it.KeyName, Flavor: it.InstanceType, Status: openStackStatus(it.StateName)}
}

type oldReservation struct {
	OwnerID string        `xml:"ownerId"`
	Items   []oldInstance `xml:"instancesSet>item"`
}

type oldImage struct {
	ImageID string `xml:"imageId"`
	Name    string `xml:"name"`
	Public  bool   `xml:"isPublic"`
}

type (
	oldRunInstances struct {
		XMLName xml.Name      `xml:"RunInstancesResponse"`
		Items   []oldInstance `xml:"instancesSet>item"`
	}
	oldDescribeInstances struct {
		XMLName      xml.Name         `xml:"DescribeInstancesResponse"`
		Reservations []oldReservation `xml:"reservationSet>item"`
	}
	oldStateChange struct {
		XMLName xml.Name
		ID      string `xml:"instancesSet>item>instanceId"`
		State   string `xml:"instancesSet>item>currentState>name"`
	}
	oldDescribeImages struct {
		XMLName xml.Name   `xml:"DescribeImagesResponse"`
		Images  []oldImage `xml:"imagesSet>item"`
	}
	oldFail struct {
		XMLName xml.Name `xml:"Response"`
		Code    string   `xml:"Errors>Error>Code"`
		Message string   `xml:"Errors>Error>Message"`
	}
)

// raceEnabled is set under the race detector, whose sync.Pool drops items
// at random.
var raceEnabled bool

// goldenEC2Bodies are the EC2 answers TestNativeDialectBytes pins.
func goldenEC2Bodies(f *testing.F) [][]byte {
	file, err := os.Open(filepath.Join("testdata", "native_dialects.golden"))
	if err != nil {
		f.Fatal(err)
	}
	defer file.Close()
	var bodies [][]byte
	xmlNext := false
	for sc := bufio.NewScanner(file); sc.Scan(); {
		line := sc.Text()
		if body, ok := strings.CutPrefix(line, "< "); ok && xmlNext {
			s, err := strconv.Unquote(body)
			if err != nil {
				f.Fatal(err)
			}
			bodies = append(bodies, []byte(s))
		}
		xmlNext = strings.HasPrefix(line, "< ") && strings.HasSuffix(line, " text/xml")
	}
	if len(bodies) == 0 {
		f.Fatal("the golden holds no EC2 answer")
	}
	return bodies
}

// FuzzEC2CodecMatchesEncodingXML holds the EC2 codec to encoding/xml. The
// fuzzed bytes are read as an answer, where each reader must return a
// value or an error, and split into field strings. For any strings, each
// answer's writer makes xml.Marshal's bytes of the old structs; for
// strings checkWire admits, the readers hand back the written values, as
// xml.Unmarshal does.
func FuzzEC2CodecMatchesEncodingXML(f *testing.F) {
	for _, body := range goldenEC2Bodies(f) {
		f.Add(body)
	}
	f.Add([]byte("\x05a\"b'c\x04<&>\t\x03\n\r\x7f\x02\xff\xfe\x03\uFFFD\x01\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		readRunInstances(data)
		readDescribeInstances(data)
		readFail(data)

		var fields [8]string
		rest := data
		for i := range fields {
			fields[i], rest = field(rest, 48)
		}
		// admits reports whether checkWire admits each of the fields a
		// reader hands back.
		admits := func(idx ...int) bool {
			for _, i := range idx {
				if !wireText(fields[i], false) {
					return false
				}
			}
			return true
		}
		state := ec2States[len(data)%len(ec2States)].state
		all := []*iaas.Instance{
			{ID: fields[2], ImageID: fields[3], Flavor: iaas.Flavor{Name: fields[4]}, State: state, Name: fields[5]},
			{ID: fields[6], ImageID: fields[7], Flavor: iaas.Flavor{Name: fields[0]}, State: iaas.StateShutoff, Name: fields[1]},
		}
		insts := all[:len(rest)%3]
		listed := admits([]int{2, 4, 5, 6, 0, 1}[:3*len(insts)]...) // ID, Flavor and Name of each

		// write answers with fill and holds the bytes to xml.Marshal of old.
		write := func(shape string, fill func(x *ec2Body), old any) []byte {
			x := newEC2Body()
			defer x.free()
			fill(x)
			want, err := xml.Marshal(old)
			if err != nil {
				t.Fatal(err)
			}
			if got := x.b[len(xmlHeader):]; !bytes.HasPrefix(x.b, []byte(xml.Header)) || !bytes.Equal(got, want) {
				t.Fatalf("%s: the writer made %q, encoding/xml %q", shape, x.b, want)
			}
			return bytes.Clone(x.b)
		}

		var items []oldInstance
		var wantList []Instance
		for _, i := range insts {
			items = append(items, toOldInstance(i))
			wantList = append(wantList, toOldInstance(i).instance())
		}
		body := write("DescribeInstances", func(x *ec2Body) { x.describeInstances(fields[0], insts) },
			oldDescribeInstances{Reservations: []oldReservation{{OwnerID: fields[0], Items: items}}})
		if got, err := readDescribeInstances(body); listed && (err != nil || !reflect.DeepEqual(got, wantList)) {
			t.Fatalf("DescribeInstances %q read back as %+v, %v; want %+v", body, got, err, wantList)
		}
		var old oldDescribeInstances
		err := xml.Unmarshal(body, &old)
		var fromXML []Instance
		for _, res := range old.Reservations {
			for _, it := range res.Items {
				fromXML = append(fromXML, it.instance())
			}
		}
		if listed && (err != nil || !reflect.DeepEqual(fromXML, wantList)) {
			t.Fatalf("encoding/xml read DescribeInstances %q as %+v, %v; want %+v", body, fromXML, err, wantList)
		}

		body = write("RunInstances", func(x *ec2Body) { x.instance(ec2Run, all[0]) },
			oldRunInstances{Items: []oldInstance{toOldInstance(all[0])}})
		if got, err := readRunInstances(body); admits(2, 4, 5) && (err != nil || got != toOldInstance(all[0]).instance()) {
			t.Fatalf("RunInstances %q read back as %+v, %v", body, got, err)
		}

		for _, action := range []string{"StopInstances", "TerminateInstances"} {
			write(action, func(x *ec2Body) { x.fill(ec2StateChange, action, fields[2], fields[3], action) },
				oldStateChange{XMLName: xml.Name{Local: action + "Response"}, ID: fields[2], State: fields[3]})
		}

		var imgs []*iaas.Image
		var oldImgs []oldImage
		for i, name := range fields[5:] {
			imgs = append(imgs, &iaas.Image{ID: fields[i], Name: name, Public: len(name)%2 == 0})
			oldImgs = append(oldImgs, oldImage{ImageID: fields[i], Name: name, Public: len(name)%2 == 0})
		}
		write("DescribeImages", func(x *ec2Body) { x.describeImages(imgs[:len(rest)%4]) },
			oldDescribeImages{Images: oldImgs[:len(rest)%4]})

		body = write("the envelope", func(x *ec2Body) { x.fail(400, fields[1], fields[2]) },
			oldFail{Code: fields[1], Message: fields[2]})
		if got := readFail(body); admits(2) && got != fields[2] {
			t.Fatalf("the envelope %q read back as %q, want %q", body, got, fields[2])
		}
	})
}

// TestEC2ReaderRefusesDeviations: an answer that strays from what the site
// writes is an error, never a partial listing, and a body that is no
// envelope carries no message.
func TestEC2ReaderRefusesDeviations(t *testing.T) {
	const item = "<item><instanceId>i-1</instanceId><imageId></imageId><instanceType>m1.small</instanceType><instanceState><name>running</name></instanceState><keyName>a&lt;&gt;&amp;&apos;&quot;&#65;&#x42;b</keyName></item>"
	list := func(items string) string {
		return xml.Header + "<DescribeInstancesResponse><reservationSet><item><ownerId>alice</ownerId><instancesSet>" + items + "</instancesSet></item></reservationSet></DescribeInstancesResponse>"
	}
	got, err := readDescribeInstances([]byte(list(item + item)))
	if want := (Instance{ID: "i-1", Name: `a<>&'"ABb`, Flavor: "m1.small", Status: string(iaas.StateActive)}); err != nil || len(got) != 2 || got[1] != want {
		t.Fatalf("a well-formed listing read as %+v, %v", got, err)
	}
	for _, body := range []string{
		"",
		list(item) + " ",
		list(item + "<item>"),
		strings.Replace(list(item), "<imageId></imageId>", "", 1),
		strings.Replace(list(item), "&lt;", "&nbsp;", 1),
		strings.Replace(list(item), "&lt;", "&#0;", 1),
		strings.Replace(list(item), "&lt;", "&#x;", 1),
		strings.Replace(list(item), "&#x42;", "&#X42;", 1),
		strings.Replace(list(item), "&#x42;b", "&#x42b", 1),
		strings.Replace(list(item), "</keyName>", "</keyname>", 1),
		strings.Replace(list(item), "<ownerId>", "<ownerId >", 1),
	} {
		if got, err := readDescribeInstances([]byte(body)); err == nil || got != nil || !strings.HasPrefix(err.Error(), "cloudapi: malformed EC2 response: ") {
			t.Errorf("%q read as %+v, %v; want a malformed-response error", body, got, err)
		}
	}
	if got, err := readRunInstances([]byte(list(item))); err == nil || got != (Instance{}) {
		t.Errorf("a listing read as a launch: %+v, %v", got, err)
	}
	for body, want := range map[string]string{
		"<Response><Errors><Error><Code>C</Code><Message>m &#34;x&#34;</Message></Error></Errors></Response>": `m "x"`,
		"<Response><Errors><Error><Message>m</Message></Error></Errors></Response>":                           "",
		`{"error":{"message":"m"}}`: "",
	} {
		if got := readFail([]byte(body)); got != want {
			t.Errorf("readFail(%q) = %q, want %q", body, got, want)
		}
	}
}

// TestEC2CodecAllocs pins what the codec allocates: a four-instance
// DescribeInstances written into a warmed pool costs nothing, and reading
// it back at most the body's string and one growth of the listing per
// instance.
func TestEC2CodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	insts := make([]*iaas.Instance, 4)
	for i := range insts {
		insts[i] = &iaas.Instance{ID: fmt.Sprint("site-inst-", i), ImageID: "img-site-1",
			Flavor: iaas.Flavor{Name: "m1.small"}, State: iaas.StateActive, Name: fmt.Sprint("vm-", i)}
	}
	var body []byte
	write := func() {
		x := newEC2Body()
		x.describeInstances("alice", insts)
		body = append(body[:0], x.b...)
		x.free()
	}
	if a := testing.AllocsPerRun(100, write); a != 0 {
		t.Errorf("writing DescribeInstances: %v allocs, want 0", a)
	}
	a := testing.AllocsPerRun(100, func() { _, _ = readDescribeInstances(body) })
	if a > float64(1+len(insts)) {
		t.Errorf("reading DescribeInstances: %v allocs, want at most %d", a, 1+len(insts))
	}
	t.Logf("reading four instances: %v allocs", a)
	if got, err := readDescribeInstances(body); err != nil || len(got) != len(insts) {
		t.Fatalf("read back %d instances, %v", len(got), err)
	}
}
