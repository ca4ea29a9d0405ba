package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/client"
	"repro/internal/faultinject"
)

// httpError carries an HTTP status through the server's internal
// methods to the handler layer.
type httpError struct {
	code int
	msg  string
	// retryAfter > 0 adds a Retry-After header (seconds): the load is
	// transient (rate limit, full queue) and the caller should back off
	// and retry rather than fail.
	retryAfter int
}

// Error implements the error interface.
func (e *httpError) Error() string { return e.msg }

// Handler returns the server's HTTP API (see docs/API.md):
//
//	GET    /healthz              liveness (503 while draining)
//	GET    /v1/catalog           predictors, suites, experiments
//	GET    /v1/stats             engine + job counters
//	POST   /v1/jobs              submit a job (client.Spec)
//	GET    /v1/jobs              list jobs, newest first
//	GET    /v1/jobs/{id}         one job's status
//	DELETE /v1/jobs/{id}         cancel a job
//	GET    /v1/jobs/{id}/result  finished job's result (409 until done)
//	GET    /v1/jobs/{id}/events  SSE progress stream (replay + live)
//
// When Config.WorkHandler is set, the coordinator's worker-pull queue
// API is mounted under /v1/work/ (see internal/dist and docs/API.md),
// un-rate-limited like /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// /healthz bypasses the rate limit: a probe loop must always see
	// liveness and drain state, even for a caller being shed.
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/catalog", s.limited(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Catalog())
	}))
	mux.HandleFunc("GET /v1/stats", s.limited(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	}))
	mux.HandleFunc("POST /v1/jobs", s.limited(s.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", s.limited(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Jobs())
	}))
	mux.HandleFunc("GET /v1/jobs/{id}", s.limited(s.handleJob))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.limited(s.handleCancel))
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.limited(s.handleResult))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.limited(s.handleEvents))
	if s.workHandler != nil {
		mux.Handle("/v1/work/", s.workHandler)
	}
	return mux
}

// limited wraps a handler with the per-caller token bucket (a no-op
// when Config.RatePerSec left the limiter disabled). Callers are
// keyed by remote address host, so one greedy client cannot starve
// the rest of the API.
func (s *Server) limited(h http.HandlerFunc) http.HandlerFunc {
	if s.limiter == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		key, _, err := net.SplitHostPort(r.RemoteAddr)
		if err != nil {
			key = r.RemoteAddr
		}
		if ok, retry := s.limiter.allow(key, time.Now()); !ok {
			writeError(w, &httpError{code: http.StatusTooManyRequests,
				msg: "rate limit exceeded", retryAfter: retry})
			return
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		code = he.code
		if he.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(he.retryAfter))
		}
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// maxSpecBytes bounds a job submission body, at the bound the work
// endpoints use: a spec is a handful of short fields, so a megabyte is
// far past any honest one.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if faultinject.Err("serve/http.submit") != nil {
		// Injected transient overload: the same envelope a real one
		// produces, so client retry behaviour is exercised end to end.
		writeError(w, &httpError{code: http.StatusServiceUnavailable,
			msg: "injected overload", retryAfter: 1})
		return
	}
	var spec client.Spec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, &httpError{code: code, msg: "bad job spec: " + err.Error()})
		return
	}
	view, err := s.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+view.ID)
	code := http.StatusCreated
	if view.Dedup {
		code = http.StatusOK
	}
	writeJSON(w, code, view)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, ok := s.Job(id)
	if !ok {
		writeError(w, &httpError{code: http.StatusNotFound, msg: "unknown job " + id})
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, ok := s.Cancel(id)
	if !ok {
		writeError(w, &httpError{code: http.StatusNotFound, msg: "unknown job " + id})
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, err := s.Result(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleEvents serves a job's event log as an SSE stream: a replay of
// everything that already happened, then live tailing until the final
// "done" event. Each event goes out as `event: <type>` plus a single
// JSON `data:` line (the client parses the JSON only; the SSE event
// name aids curl readability).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, &httpError{code: http.StatusNotFound, msg: "unknown job " + id})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, &httpError{code: http.StatusInternalServerError, msg: "response writer cannot stream"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	from := 0
	for {
		evs, closed := j.waitEvents(r.Context(), from)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		from += len(evs)
		if closed && len(evs) == 0 {
			return
		}
		if faultinject.Err("serve/sse.stream") != nil {
			// Injected connection loss: the stream ends mid-job, exactly
			// as a dropped TCP connection would; clients reconnect and
			// dedup against the full replay.
			return
		}
		if r.Context().Err() != nil {
			return
		}
	}
}
