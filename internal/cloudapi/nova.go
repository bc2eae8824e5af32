package cloudapi

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"

	"osdc/internal/iaas"
	"osdc/internal/wire"
)

// The OpenStack compute dialect, the one Tukey treats as canonical (§5.2:
// requests are "based on the OpenStack API"): REST routes with JSON bodies,
// the caller in an X-Auth-User header the middleware injects after mapping
// the federated identity to per-cloud credentials. The site serves it with
// serveNova and Remote reads it with nova, through the declarations below;
// the flavor and image listings are served for raw clients.
//
//	GET    /v2/servers             list the caller's servers
//	POST   /v2/servers             create a server
//	DELETE /v2/servers/{id}        terminate a server
//	POST   /v2/servers/{id}/action server actions ({"os-stop": null})
//	GET    /v2/flavors             list flavors
//	GET    /v2/images              list visible images

// novaServer is the wire form of one instance.
type novaServer struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Status string `json:"status"`
	Flavor string `json:"flavorRef"`
	Image  string `json:"imageRef"`
	HostID string `json:"hostId"`
	UserID string `json:"user_id"`
}

func toNovaServer(i *iaas.Instance) novaServer {
	return novaServer{
		ID: i.ID, Name: i.Name, Status: string(i.State),
		Flavor: i.Flavor.Name, Image: i.ImageID, HostID: i.Host, UserID: i.User,
	}
}

func (s novaServer) instance() Instance {
	return Instance{ID: s.ID, Name: s.Name, Flavor: s.Flavor, Status: s.Status}
}

// novaCreate is the POST /v2/servers request.
type novaCreate struct {
	Server struct {
		Name   string `json:"name"`
		Flavor string `json:"flavorRef"`
		Image  string `json:"imageRef"`
	} `json:"server"`
}

// novaStop is the one server action the dialect carries.
const novaStop = `{"os-stop": null}`

// The response bodies.
type (
	novaServerBody struct {
		Server novaServer `json:"server"`
	}
	novaServers struct {
		Servers []novaServer `json:"servers"`
	}
	novaFlavors struct {
		Flavors []novaFlavor `json:"flavors"`
	}
	novaImages struct {
		Images []novaImage `json:"images"`
	}
)

type novaFlavor struct {
	Name   string `json:"name"`
	VCPUs  int    `json:"vcpus"`
	RAMMB  int    `json:"ram"`
	DiskGB int    `json:"disk"`
}

type novaImage struct {
	ID     string   `json:"id"`
	Name   string   `json:"name"`
	Public bool     `json:"public"`
	Tools  []string `json:"metadata_tools,omitempty"`
}

// novaFail is the dialect's error envelope.
type novaFail struct {
	Error struct {
		Message string `json:"message"`
	} `json:"error"`
}

func novaError(w http.ResponseWriter, code int, msg string) {
	var fail novaFail
	fail.Error.Message = msg
	wire.WriteJSON(w, code, fail)
}

// serveNova answers one request of the dialect against the site's cloud.
func (s *Server) serveNova(w http.ResponseWriter, r *http.Request) {
	c := s.local.C
	user := r.Header.Get("X-Auth-User")
	if user == "" {
		novaError(w, http.StatusUnauthorized, "missing X-Auth-User")
		return
	}
	switch {
	case r.URL.Path == "/v2/servers" && r.Method == http.MethodGet:
		var out novaServers
		for _, i := range c.Instances(user) {
			out.Servers = append(out.Servers, toNovaServer(i))
		}
		wire.WriteJSON(w, http.StatusOK, out)

	case r.URL.Path == "/v2/servers" && r.Method == http.MethodPost:
		var req novaCreate
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			novaError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
			return
		}
		inst, err := launch(c, user, req.Server.Name, req.Server.Flavor, req.Server.Image)
		if err != nil {
			novaError(w, launchStatus(err), err.Error())
			return
		}
		wire.WriteJSON(w, http.StatusAccepted, novaServerBody{toNovaServer(inst)})

	case strings.HasPrefix(r.URL.Path, "/v2/servers/") && strings.HasSuffix(r.URL.Path, "/action") && r.Method == http.MethodPost:
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v2/servers/"), "/action")
		var action map[string]json.RawMessage
		if err := json.NewDecoder(r.Body).Decode(&action); err != nil {
			novaError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
			return
		}
		if _, ok := action["os-stop"]; !ok {
			novaError(w, http.StatusBadRequest, "unsupported server action")
			return
		}
		if err := c.Stop(user, id); err != nil {
			novaError(w, http.StatusNotFound, err.Error())
			return
		}
		w.WriteHeader(http.StatusAccepted)

	case strings.HasPrefix(r.URL.Path, "/v2/servers/") && r.Method == http.MethodDelete:
		if err := c.Terminate(user, strings.TrimPrefix(r.URL.Path, "/v2/servers/")); err != nil {
			novaError(w, http.StatusNotFound, err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)

	case r.URL.Path == "/v2/flavors" && r.Method == http.MethodGet:
		var out novaFlavors
		for _, f := range c.Flavors() {
			out.Flavors = append(out.Flavors, novaFlavor{Name: f.Name, VCPUs: f.VCPUs, RAMMB: f.RAMMB, DiskGB: f.DiskGB})
		}
		wire.WriteJSON(w, http.StatusOK, out)

	case r.URL.Path == "/v2/images" && r.Method == http.MethodGet:
		var out novaImages
		for _, img := range c.Images() {
			out.Images = append(out.Images, novaImage{ID: img.ID, Name: img.Name, Public: img.Public, Tools: img.Tools})
		}
		wire.WriteJSON(w, http.StatusOK, out)

	default:
		novaError(w, http.StatusNotFound, "no route "+r.Method+" "+r.URL.Path)
	}
}

// nova makes one round trip on the dialect: body, when set, is sent as
// is, user rides in X-Auth-User, an answer over wire.MaxBodyBytes is an
// error, and an answer of status ok decodes into out (nil discards it).
// Any other answer is an error naming the call, the status and the site's
// message; status and msg come back too, so a launch can rebuild the
// refusal's class.
func (r *Remote) nova(method, path, user, body string, ok int, out any) (status int, msg string, err error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, r.endpoint+path, rd)
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("X-Auth-User", user)
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := wire.ReadBody(resp.Body)
	if err != nil {
		return 0, "", err
	}
	defer b.Release() // json.Unmarshal copies what it keeps
	raw := b.Bytes()
	switch {
	case resp.StatusCode != ok:
		var fail novaFail
		_ = json.Unmarshal(raw, &fail)
		return resp.StatusCode, fail.Error.Message, r.refusedCall(method+" "+path, resp.StatusCode, fail.Error.Message)
	case out != nil:
		err = json.Unmarshal(raw, out)
	}
	return resp.StatusCode, "", err
}

func (r *Remote) novaInstances(user string) ([]Instance, error) {
	var body novaServers
	if _, _, err := r.nova(http.MethodGet, "/v2/servers", user, "", http.StatusOK, &body); err != nil {
		return nil, err
	}
	var out []Instance
	for _, s := range body.Servers {
		out = append(out, s.instance())
	}
	return out, nil
}

func (r *Remote) novaLaunch(user, name, flavor, image string) (Instance, error) {
	var req novaCreate
	req.Server.Name, req.Server.Flavor, req.Server.Image = name, flavor, image
	payload, _ := json.Marshal(req) // a struct of strings always marshals
	var body novaServerBody
	status, msg, err := r.nova(http.MethodPost, "/v2/servers", user, string(payload), http.StatusAccepted, &body)
	if status != 0 && status != http.StatusAccepted {
		return Instance{}, r.launchError(user, flavor, status, msg)
	}
	if err != nil {
		return Instance{}, err
	}
	return body.Server.instance(), nil
}
