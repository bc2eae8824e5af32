package iaas

import (
	"encoding/json"
	"net/http"
	"strings"
)

// NovaAPI serves an OpenStack-compute-style JSON API over a Cloud. This is
// the dialect Tukey treats as canonical (§5.2: requests are "based on the
// OpenStack API").
//
// Routes:
//
//	GET    /v2/servers             list the caller's servers
//	POST   /v2/servers             create a server
//	DELETE /v2/servers/{id}        terminate a server
//	POST   /v2/servers/{id}/action server actions ({"os-stop": null})
//	GET    /v2/flavors             list flavors
//	GET    /v2/images              list visible images
//
// Authentication is a bearer-style header, X-Auth-User, injected by the
// middleware after it has mapped the federated identity to per-cloud
// credentials.
type NovaAPI struct {
	Cloud *Cloud
}

// NovaServer is the wire form of an instance.
type NovaServer struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Status string `json:"status"`
	Flavor string `json:"flavorRef"`
	Image  string `json:"imageRef"`
	HostID string `json:"hostId"`
	UserID string `json:"user_id"`
}

// NovaFlavor is the wire form of a flavor.
type NovaFlavor struct {
	Name   string `json:"name"`
	VCPUs  int    `json:"vcpus"`
	RAMMB  int    `json:"ram"`
	DiskGB int    `json:"disk"`
}

// NovaImage is the wire form of an image.
type NovaImage struct {
	ID     string   `json:"id"`
	Name   string   `json:"name"`
	Public bool     `json:"public"`
	Tools  []string `json:"metadata_tools,omitempty"`
}

func novaServer(i *Instance) NovaServer {
	return NovaServer{
		ID: i.ID, Name: i.Name, Status: string(i.State),
		Flavor: i.Flavor.Name, Image: i.ImageID, HostID: i.Host, UserID: i.User,
	}
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func novaError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]map[string]string{"error": {"message": msg}})
}

// ServeHTTP implements http.Handler.
func (a *NovaAPI) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	user := r.Header.Get("X-Auth-User")
	if user == "" {
		novaError(w, http.StatusUnauthorized, "missing X-Auth-User")
		return
	}
	switch {
	case r.URL.Path == "/v2/servers" && r.Method == http.MethodGet:
		var out []NovaServer
		for _, i := range a.Cloud.Instances(user) {
			out = append(out, novaServer(i))
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{"servers": out})

	case r.URL.Path == "/v2/servers" && r.Method == http.MethodPost:
		var req struct {
			Server struct {
				Name      string `json:"name"`
				FlavorRef string `json:"flavorRef"`
				ImageRef  string `json:"imageRef"`
			} `json:"server"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			novaError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
			return
		}
		inst, err := a.Cloud.Launch(user, req.Server.Name, req.Server.FlavorRef, req.Server.ImageRef)
		if err != nil {
			code := http.StatusBadRequest
			switch err.(type) {
			case ErrQuota:
				code = http.StatusForbidden
			case ErrCapacity:
				code = http.StatusConflict
			}
			novaError(w, code, err.Error())
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]interface{}{"server": novaServer(inst)})

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
		if err := a.Cloud.Stop(user, id); err != nil {
			novaError(w, http.StatusNotFound, err.Error())
			return
		}
		w.WriteHeader(http.StatusAccepted)

	case strings.HasPrefix(r.URL.Path, "/v2/servers/") && r.Method == http.MethodDelete:
		id := strings.TrimPrefix(r.URL.Path, "/v2/servers/")
		if err := a.Cloud.Terminate(user, id); err != nil {
			novaError(w, http.StatusNotFound, err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)

	case r.URL.Path == "/v2/flavors" && r.Method == http.MethodGet:
		var out []NovaFlavor
		for _, f := range a.Cloud.Flavors() {
			out = append(out, NovaFlavor{Name: f.Name, VCPUs: f.VCPUs, RAMMB: f.RAMMB, DiskGB: f.DiskGB})
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{"flavors": out})

	case r.URL.Path == "/v2/images" && r.Method == http.MethodGet:
		var out []NovaImage
		for _, img := range a.Cloud.Images() {
			out = append(out, NovaImage{ID: img.ID, Name: img.Name, Public: img.Public, Tools: img.Tools})
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{"images": out})

	default:
		novaError(w, http.StatusNotFound, "no route "+r.Method+" "+r.URL.Path)
	}
}
