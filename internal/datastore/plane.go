package datastore

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"osdc/internal/wire"
)

// The /cloudapi/datasets wire protocol. The server side lives here (and is
// mounted by cloudapi.Server next to the clock and quota routes) so the
// wire forms and the Remote client stay in one package:
//
//	GET    /cloudapi/datasets                  → 200 listResponse
//	GET    /cloudapi/datasets?since=R          → 200 deltaResponse | 400 bad since
//	GET    /cloudapi/datasets/replica?dataset= → 200 Replica | 404
//	POST   /cloudapi/datasets/replica (Replica)→ 204 | 400 invalid | 507 volume full
//	DELETE /cloudapi/datasets/replica?dataset= → 204 | 404
//
// Error bodies are {"error": msg} with msg the Local backend's exact error
// string, which is how Remote reproduces Local's errors byte for byte.

// listResponse is the GET /cloudapi/datasets wire form. Site and Loc make
// the plane self-describing, so a Remote can be built from an endpoint
// alone (ProbeRemote).
type listResponse struct {
	Site     string    `json:"site"`
	Loc      string    `json:"loc"`
	Replicas []Replica `json:"replicas"`
}

// deltaResponse is the GET /cloudapi/datasets?since=R wire form: the
// store's Delta plus the plane's self-description.
type deltaResponse struct {
	Site string `json:"site"`
	Loc  string `json:"loc"`
	Delta
}

// ServePlane handles one /cloudapi/datasets request against api.
// cloudapi.Server routes the prefix here after its operator-auth check.
func ServePlane(api API, w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/cloudapi/datasets" && r.Method == http.MethodGet:
		if raw := r.URL.Query().Get("since"); raw != "" {
			since, err := strconv.ParseInt(raw, 10, 64)
			if err != nil {
				wire.WriteError(w, http.StatusBadRequest, "datastore: bad since "+strconv.Quote(raw))
				return
			}
			d, err := api.ListSince(r.Context(), since)
			if err != nil {
				wire.WriteError(w, http.StatusBadGateway, err.Error())
				return
			}
			wire.WriteJSON(w, http.StatusOK, deltaResponse{Site: api.Name(), Loc: api.Loc(), Delta: d})
			return
		}
		reps, err := api.List(r.Context())
		if err != nil {
			wire.WriteError(w, http.StatusBadGateway, err.Error())
			return
		}
		wire.WriteJSON(w, http.StatusOK, listResponse{Site: api.Name(), Loc: api.Loc(), Replicas: reps})

	case r.URL.Path == "/cloudapi/datasets/replica" && r.Method == http.MethodGet:
		rep, err := api.Get(r.Context(), r.URL.Query().Get("dataset"))
		if err != nil {
			wire.WriteError(w, http.StatusNotFound, err.Error())
			return
		}
		wire.WriteJSON(w, http.StatusOK, rep)

	case r.URL.Path == "/cloudapi/datasets/replica" && r.Method == http.MethodPost:
		var rep Replica
		if err := json.NewDecoder(r.Body).Decode(&rep); err != nil {
			wire.WriteError(w, http.StatusBadRequest, "datastore: bad JSON: "+err.Error())
			return
		}
		if err := api.Put(r.Context(), rep); err != nil {
			// Invalid replicas are the caller's fault; anything else is
			// the volume rejecting the bytes (full share → 507).
			code := http.StatusInsufficientStorage
			if validate(rep) != nil {
				code = http.StatusBadRequest
			}
			wire.WriteError(w, code, err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)

	case r.URL.Path == "/cloudapi/datasets/replica" && r.Method == http.MethodDelete:
		if err := api.Delete(r.Context(), r.URL.Query().Get("dataset")); err != nil {
			code := http.StatusNotFound
			if !errors.Is(err, ErrNoReplica) {
				code = http.StatusBadGateway
			}
			wire.WriteError(w, code, err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)

	default:
		wire.WriteError(w, http.StatusNotFound, "datastore: no route "+r.Method+" "+r.URL.Path)
	}
}
