package dist

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/client"
)

// Handler returns the coordinator's worker-pull HTTP API (docs/API.md):
//
//	POST /v1/work/lease     lease one item (long poll; 204 after the hold)
//	POST /v1/work/complete  post a leased item's outcome (+ next lease)
//	GET  /v1/work/stats     queue depth + scheduling counters
//
// Request bodies past maxBodyBytes are refused with 413.
//
// The endpoints use the serve-layer JSON envelope ({"error": ...} on
// failure) and are meant to be mounted unauthenticated and un-rate-
// limited next to the job API (serve.Config.WorkHandler): workers are
// trusted infrastructure, and shedding them would stall every job on
// the coordinator.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/work/lease", c.handleLease)
	mux.HandleFunc("POST /v1/work/complete", c.handleComplete)
	mux.HandleFunc("GET /v1/work/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Stats())
	})
	return mux
}

// maxBodyBytes bounds a lease or completion body: a completion carries
// one small result per shard, so a megabyte is far past any honest one.
const maxBodyBytes = 1 << 20

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req client.WorkLeaseRequest
	if !decodeBody(w, r, &req, "bad lease request") {
		return
	}
	l, ok := c.lease(r.Context(), req.Worker, leaseHold)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, l)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var comp client.WorkCompletion
	if !decodeBody(w, r, &comp, "bad completion") {
		return
	}
	writeJSON(w, http.StatusOK, c.complete(r.Context(), comp, leaseHold))
}

// decodeBody decodes the size-bounded JSON body into v, answering 413
// past maxBodyBytes and 400 for malformed JSON; it reports success.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeHTTPError(w, code, what+": "+err.Error())
	return false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeHTTPError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
