package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/telemetry"
)

// maxSubmissionBytes bounds the POST /jobs body; a submission is a
// handful of scalar knobs, so anything bigger is garbage or abuse.
const maxSubmissionBytes = 1 << 20

// Handler mounts the daemon's HTTP API:
//
//	POST   /jobs                submit an assessment (202; 429 on queue overflow)
//	GET    /jobs                list job statuses
//	GET    /jobs/{id}           one job's status
//	GET    /jobs/{id}/progress  live per-job campaign snapshot (telemetry.Snapshot)
//	GET    /jobs/{id}/metrics   per-job metrics (Prometheus text; JSON at metrics.json)
//	GET    /jobs/{id}/report    the finished report — byte-identical to cmd/certify
//	GET    /jobs/{id}/journal   the job's JSONL run journal (events + tracer spans)
//	DELETE /jobs/{id}           cancel a queued or running job
//	GET    /metrics             daemon metrics (queue, cache, stage latencies; JSON at /metrics.json)
//	GET    /healthz             liveness + drain state
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.withJob(s.handleStatus))
	mux.HandleFunc("DELETE /jobs/{id}", s.withJob(s.handleCancel))
	mux.HandleFunc("GET /jobs/{id}/progress", s.withJob(s.handleJobTelemetry))
	mux.HandleFunc("GET /jobs/{id}/metrics", s.withJob(s.handleJobTelemetry))
	mux.HandleFunc("GET /jobs/{id}/metrics.json", s.withJob(s.handleJobTelemetry))
	mux.HandleFunc("GET /jobs/{id}/report", s.withJob(s.handleReport))
	mux.HandleFunc("GET /jobs/{id}/journal", s.withJob(s.handleJournal))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics.json", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// withJob resolves the {id} path segment, 404ing unknown jobs.
func (s *Server) withJob(h func(http.ResponseWriter, *http.Request, *Job)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.Job(r.PathValue("id"))
		if !ok {
			http.Error(w, "unknown job", http.StatusNotFound)
			return
		}
		h(w, r, job)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sub Submission
	dec := json.NewDecoder(io.LimitReader(r.Body, maxSubmissionBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sub); err != nil {
		http.Error(w, fmt.Sprintf("bad submission: %v", err), http.StatusBadRequest)
		return
	}
	job, err := s.Submit(sub)
	switch {
	case errors.Is(err, ErrQueueFull):
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	st := job.Status(s.now())
	code := http.StatusAccepted
	if st.State == StateDone { // cache hit: born done
		code = http.StatusOK
	}
	writeJSONStatus(w, code, st)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.Jobs()
	now := s.now()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status(now))
	}
	writeJSONStatus(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request, job *Job) {
	writeJSONStatus(w, http.StatusOK, job.Status(s.now()))
}

func (s *Server) handleCancel(w http.ResponseWriter, _ *http.Request, job *Job) {
	job.Cancel()
	writeJSONStatus(w, http.StatusOK, job.Status(s.now()))
}

// handleJobTelemetry serves the per-job observer endpoints by mounting
// the same telemetry.CampaignHandler that backs the process-global
// status server — /progress promoted from observer to product, one
// instance per tenant job.
func (s *Server) handleJobTelemetry(w http.ResponseWriter, r *http.Request, job *Job) {
	http.StripPrefix("/jobs/"+job.ID, telemetry.CampaignHandler(job.tel)).ServeHTTP(w, r)
}

func (s *Server) handleReport(w http.ResponseWriter, _ *http.Request, job *Job) {
	st := job.Status(s.now())
	switch st.State {
	case StateDone:
	case StateFailed, StateCanceled:
		http.Error(w, fmt.Sprintf("job %s %s: %s", job.ID, st.State, st.Error), http.StatusGone)
		return
	default:
		w.Header().Set("Retry-After", "1")
		http.Error(w, fmt.Sprintf("job %s is %s", job.ID, st.State), http.StatusConflict)
		return
	}
	job.mu.Lock()
	report := job.report
	job.mu.Unlock()
	// The report is the byte-identity surface: exactly the bytes of
	// core.Run's Assessment.Report() at the job's grading, no wrapping,
	// no trailing additions.
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, report) //nolint:errcheck — client went away
}

func (s *Server) handleJournal(w http.ResponseWriter, _ *http.Request, job *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(job.journal.Bytes()) //nolint:errcheck — client went away
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	telemetry.ServeMetrics(w, r, s.reg)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	writeJSONStatus(w, http.StatusOK, map[string]any{
		"status":      status,
		"queue_depth": s.queueLen.Load(),
		"running":     s.running.Load(),
	})
}

// writeJSONStatus mirrors telemetry's hardened writeJSON: marshal
// fully before touching the ResponseWriter so an encoding failure is a
// 500, never a truncated 200.
func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, fmt.Sprintf("serve: encode: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n')) //nolint:errcheck — client went away
}
