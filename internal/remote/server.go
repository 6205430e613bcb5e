package remote

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stormtune/internal/core"
	"stormtune/internal/storm"
)

// Admission is the server-side admission control policy: instead of
// letting an oversubscribed worker queue requests blindly at the TCP
// layer, runs beyond MaxConcurrent are refused immediately with a
// structured backpressure signal (HTTP 429, queue depth, estimated
// wait, Retry-After) that the client pool consumes to shed the trial
// to a less-loaded worker.
type Admission struct {
	// MaxConcurrent caps the evaluations running at once; 0 disables
	// admission control (every run is admitted).
	MaxConcurrent int
}

// ServerOptions configure an evaluation server.
type ServerOptions struct {
	// Auth, when its Token is non-empty, gates /run and /info behind
	// `Authorization: Bearer <token>`; /healthz stays open so load
	// balancers and pool re-probes work without credentials.
	Auth Credentials
	// Admission bounds concurrent evaluations; see Admission.
	Admission Admission
	// FailEveryN, when positive, injects a deterministic fault: every
	// Nth /run request is rejected with HTTP 500 *before* evaluation.
	// Combined with a session RetryPolicy it exercises the retry path
	// end to end — the `stormtune serve -flaky N` flag maps here.
	FailEveryN int
	// MaxRunSeconds caps a single evaluation even when the trial carries
	// no deadline of its own (default 0 = uncapped).
	MaxRunSeconds int
	// Logf, when set, receives one line per handled request.
	Logf func(format string, args ...any)
}

// registration is one served topology: its description and the backend
// that measures it.
type registration struct {
	info TopologyInfo
	bk   core.Backend
}

// Server serves one or more registered topology backends over HTTP,
// routing each POST /run to the registration matching the request's
// fingerprint. It is safe for concurrent requests as long as the
// backends are (the Backend contract requires it).
type Server struct {
	opts ServerOptions
	reqs atomic.Int64

	mu       sync.Mutex
	regs     []registration
	inFlight int
	// avgRunMS is an exponentially weighted mean of evaluation
	// wall-clock, feeding the estimated-wait backpressure signal.
	avgRunMS float64
}

// NewServer builds an empty server; Register adds the topologies it
// serves.
func NewServer(opts ServerOptions) *Server {
	return &Server{opts: opts}
}

// NewSingleServer builds a server serving exactly one topology — the
// common single-tenant worker, one call instead of NewServer+Register.
func NewSingleServer(bk core.Backend, info TopologyInfo, opts ServerOptions) *Server {
	s := NewServer(opts)
	if err := s.Register(info, bk); err != nil {
		// Only a nil backend or duplicate fingerprint can fail; with one
		// registration only the former, a programming error.
		panic(err)
	}
	return s
}

// Register adds a topology to the server's registry. The fingerprint
// is the routing key and must be unique; registering while requests
// are in flight is safe (workers can grow their registry live).
func (s *Server) Register(info TopologyInfo, bk core.Backend) error {
	if bk == nil {
		return fmt.Errorf("remote: registering %q: nil backend", info.Topology)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.regs {
		if r.info.Fingerprint != "" && r.info.Fingerprint == info.Fingerprint {
			return fmt.Errorf("remote: topology fingerprint %s already registered (%q)",
				info.Fingerprint, r.info.Topology)
		}
	}
	s.regs = append(s.regs, registration{info: info, bk: bk})
	return nil
}

// Info describes the server the way GET /info does.
func (s *Server) Info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := Info{
		InFlight:     s.inFlight,
		Capacity:     s.opts.Admission.MaxConcurrent,
		AuthRequired: s.opts.Auth.Token != "",
	}
	for _, r := range s.regs {
		info.Topologies = append(info.Topologies, r.info)
	}
	return info
}

// Handler returns the HTTP surface: POST /run, GET /info, GET /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", s.auth(s.handleRun))
	mux.HandleFunc("GET /info", s.auth(s.handleInfo))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// auth wraps a handler behind the bearer-token check; a zero-token
// server passes everything through.
func (s *Server) auth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if token := s.opts.Auth.Token; token != "" {
			got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
			if !ok || subtle.ConstantTimeCompare([]byte(got), []byte(token)) != 1 {
				writeJSON(w, http.StatusUnauthorized, RunResponse{
					Error: "missing or wrong bearer token", Code: CodeAuth,
				})
				return
			}
		}
		h(w, r)
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Info())
}

// route resolves a request fingerprint against the registry. An empty
// fingerprint is accepted only when exactly one topology is
// registered — the single-tenant shortcut that keeps fingerprint-less
// callers working against dedicated workers.
func (s *Server) route(fingerprint string) (registration, bool, []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	served := make([]string, 0, len(s.regs))
	for _, r := range s.regs {
		served = append(served, r.info.Fingerprint)
	}
	if fingerprint == "" {
		if len(s.regs) == 1 {
			return s.regs[0], true, served
		}
		return registration{}, false, served
	}
	for _, r := range s.regs {
		if r.info.Fingerprint == fingerprint {
			return r, true, served
		}
	}
	return registration{}, false, served
}

// admit reserves an evaluation slot, refusing with a backpressure
// snapshot when the server is at capacity.
func (s *Server) admit() (ok bool, depth int, estWait time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if max := s.opts.Admission.MaxConcurrent; max > 0 && s.inFlight >= max {
		// Estimated wait: the smoothed evaluation duration, scaled by
		// how many admitted runs must finish before a slot frees for
		// this caller (at least one).
		est := time.Duration(s.avgRunMS * float64(time.Millisecond))
		if est <= 0 {
			est = 100 * time.Millisecond
		}
		over := s.inFlight - max + 1
		return false, s.inFlight, est * time.Duration(over)
	}
	s.inFlight++
	return true, s.inFlight, 0
}

// done releases an admitted slot and folds the run's duration into the
// smoothed estimate.
func (s *Server) done(elapsed time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inFlight--
	ms := float64(elapsed) / float64(time.Millisecond)
	if s.avgRunMS == 0 {
		s.avgRunMS = ms
	} else {
		const alpha = 0.2
		s.avgRunMS = (1-alpha)*s.avgRunMS + alpha*ms
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	n := s.reqs.Add(1)
	if f := int64(s.opts.FailEveryN); f > 0 && n%f == 0 {
		s.logf("run #%d: injected fault", n)
		writeJSON(w, http.StatusInternalServerError, RunResponse{Error: "injected fault", Code: CodeEvaluation})
		return
	}
	var req RunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, RunResponse{
			Error: "decoding run request: " + err.Error(), Code: CodeBadRequest,
		})
		return
	}
	reg, ok, served := s.route(req.Fingerprint)
	if !ok {
		s.logf("run #%d: unknown fingerprint %q", n, req.Fingerprint)
		writeJSON(w, http.StatusNotFound, RunResponse{
			Error:  fmt.Sprintf("no registered topology for fingerprint %q", req.Fingerprint),
			Code:   CodeUnknownFingerprint,
			Served: served,
		})
		return
	}
	// A config the simulators cannot run (a hint count other than the
	// served topology's, a hint below 1, ...) is the caller's error, not
	// a lost evaluation. A registration without a node count accepts
	// any number of hints.
	nodes := reg.info.Nodes
	if nodes <= 0 {
		nodes = len(req.Config.Hints)
	}
	if err := req.Config.Validate(nodes); err != nil {
		writeJSON(w, http.StatusBadRequest, RunResponse{
			Error: fmt.Sprintf("config for served topology %q: %v", reg.info.Topology, err),
			Code:  CodeBadRequest,
		})
		return
	}

	// Admission: refuse past capacity with a structured backpressure
	// signal instead of queueing — the pool sheds to another worker.
	admitted, depth, estWait := s.admit()
	if !admitted {
		retryAfter := int(estWait / time.Second)
		if retryAfter < 1 {
			retryAfter = 1
		}
		s.logf("run #%d: refused at capacity (%d in flight, est. wait %s)", n, depth, estWait)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		writeJSON(w, http.StatusTooManyRequests, RunResponse{
			Error:      fmt.Sprintf("at capacity: %d evaluations in flight", depth),
			Code:       CodeOverloaded,
			QueueDepth: depth,
			EstWaitMS:  int64(estWait / time.Millisecond),
		})
		return
	}
	start := time.Now()
	defer func() { s.done(time.Since(start)) }()

	ctx := r.Context()
	timeout := time.Duration(req.Trial.TimeoutMS) * time.Millisecond
	if cap := time.Duration(s.opts.MaxRunSeconds) * time.Second; cap > 0 && (timeout <= 0 || timeout > cap) {
		timeout = cap
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	tr := core.Trial{
		ID:          req.Trial.ID,
		Config:      req.Config,
		RunIndex:    req.Trial.RunIndex,
		Attempt:     req.Trial.Attempt,
		Timeout:     timeout,
		Fingerprint: req.Fingerprint,
	}
	// Evaluate on a separate goroutine so a backend that cannot observe
	// ctx mid-run (the simulators run to completion) still cannot hold
	// the response past the deadline: the reply is abandoned at the
	// deadline and the stray evaluation finishes in the background, its
	// result discarded (the buffered channel keeps it from leaking).
	type outcome struct {
		res storm.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := reg.bk.Run(ctx, tr)
		ch <- outcome{res: res, err: err}
	}()
	var o outcome
	select {
	case o = <-ch:
	case <-ctx.Done():
		s.logf("run #%d: trial %d attempt %d abandoned: %v", n, tr.ID, tr.Attempt, ctx.Err())
		writeJSON(w, http.StatusGatewayTimeout, RunResponse{
			Error: "evaluation abandoned: " + ctx.Err().Error(), Code: CodeAbandoned,
		})
		return
	}
	if o.err != nil {
		s.logf("run #%d: trial %d attempt %d failed: %v", n, tr.ID, tr.Attempt, o.err)
		writeJSON(w, http.StatusBadGateway, RunResponse{Error: o.err.Error(), Code: CodeEvaluation})
		return
	}
	res := o.res
	s.logf("run #%d [%s]: trial %d attempt %d → %.0f tuples/s", n, reg.info.Topology, tr.ID, tr.Attempt, res.Throughput)
	writeJSON(w, http.StatusOK, RunResponse{Result: &res})
}
