package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"cocco/internal/serialize"
)

// HTTP/JSON API:
//
//	POST /jobs               submit a JobSpecJSON        → 201 {"id","state"}
//	GET  /jobs               list manifests              → 200 [manifest...]
//	GET  /jobs/{id}          one manifest                → 200 manifest
//	GET  /jobs/{id}/result   final genome and cost       → 200 result | 409 while non-terminal
//	POST /jobs/{id}/cancel   request cancellation        → 200 manifest | 409 if terminal
//	GET  /jobs/{id}/watch    ndjson manifest stream, one line per progress
//	                         update, ending with the terminal manifest
//
// Every error body is {"error": "..."}; unknown job IDs are 404, malformed
// specs 400, spec bodies over 64 KiB 413, wrong-state requests 409.

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/watch", s.handleWatch)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// statusFor maps the store's sentinel errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, ErrJobTerminal):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// maxSpecBytes caps a POST /jobs body. A job spec is well under 1 KiB.
const maxSpecBytes = 64 << 10

// decodeSpec reads one job spec, refusing any field JobSpecJSON lacks.
func decodeSpec(r io.Reader) (spec serialize.JobSpecJSON, err error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err = dec.Decode(&spec)
	return spec, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("decode job spec: %w", err))
		return
	}
	id, err := s.Submit(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": id, "state": serialize.JobStateQueued})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Manifests())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	m, err := s.Manifest(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, m)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	m, err := s.Manifest(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	if !terminal(m.State) {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s; result not ready", m.ID, m.State))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":       m.ID,
		"state":    m.State,
		"feasible": m.Result != nil,
		"result":   m.Result,
		"error":    m.Error,
		"progress": m.Progress,
	})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Cancel(id); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	m, err := s.Manifest(id)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// handleWatch streams the manifest as newline-delimited JSON: the current
// state immediately, then one line per visible change, ending after the
// terminal manifest is sent (or the client goes away).
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	flusher, _ := w.(http.Flusher)
	first := true
	for {
		m, ch, err := s.Watch(id)
		if err != nil {
			if first {
				writeError(w, statusFor(err), err)
			}
			return
		}
		if first {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			first = false
		}
		line, err := json.Marshal(m)
		if err != nil {
			return
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if terminal(m.State) {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}
