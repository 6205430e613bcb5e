package dash

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"net/http"

	"stormtune/internal/core"
)

//go:embed fleet.html
var fleetHTML []byte

// FleetOptions configure a fleet dashboard handler.
type FleetOptions struct {
	// Title is shown on the fleet page and in /api/fleet (default
	// "stormtune fleet").
	Title string
	// Info carries static run metadata — manifest path, worker URLs,
	// dispatch mode — merged into /api/fleet under "info".
	Info map[string]any
	// SessionInfo, when set, supplies per-session static metadata keyed
	// by member name, forwarded into each drill-down dashboard's
	// /api/state "info" field.
	SessionInfo map[string]map[string]any
	// PoolStats, when set, is sampled on every /api/fleet request and
	// surfaced under "workers" — the shared pool's per-worker counters.
	PoolStats func() []WorkerStats
}

// FleetSessionState is one session's entry in the /api/fleet document:
// the fleet-level status plus the drill-down URLs.
type FleetSessionState struct {
	core.FleetSessionStatus
	// URL, StateURL and EventsURL locate the session's own dashboard
	// page, JSON state and SSE stream (empty when the member has no
	// Recorder to serve).
	URL       string `json:"url,omitempty"`
	StateURL  string `json:"stateUrl,omitempty"`
	EventsURL string `json:"eventsUrl,omitempty"`
}

// FleetState is the /api/fleet document.
type FleetState struct {
	Title string `json:"title"`
	// Slots, InFlight, Best, BestSession and Done mirror
	// core.FleetStatus; Sessions carries the per-session entries with
	// drill-down URLs attached.
	Slots       int                 `json:"slots"`
	InFlight    int                 `json:"inFlight"`
	Best        float64             `json:"best"`
	BestSession string              `json:"bestSession,omitempty"`
	Done        bool                `json:"done"`
	Sessions    []FleetSessionState `json:"sessions"`
	Info        map[string]any      `json:"info,omitempty"`
	Workers     []WorkerStats       `json:"workers,omitempty"`
}

// FleetHandler is the aggregated dashboard over a core.Fleet:
//
//	GET /                        the embedded fleet index page
//	GET /api/fleet               aggregated JSON (per-session status,
//	                             incumbents, slot occupancy, pool stats)
//	GET /sessions/{name}/        one session's full dashboard — the same
//	                             page, /api/state and SSE /api/events
//	                             (replay-from-ID included) a
//	                             single-session Handler serves
//	GET /healthz                 liveness probe
//
// Per-session drill-down reuses Handler verbatim over each member's
// Recorder, so everything that works against a single run — SSE replay
// with ?after=N or Last-Event-ID, the terminal done event, curl in CI —
// works per fleet session unchanged.
type FleetHandler struct {
	fleet    *core.Fleet
	opts     FleetOptions
	mux      *http.ServeMux
	sessions map[string]*Handler
}

// NewFleet builds the aggregated dashboard over a fleet. Members with a
// Recorder get a drill-down dashboard mounted under /sessions/{name}/;
// members without one still appear in /api/fleet (slot occupancy only).
func NewFleet(f *core.Fleet, opts FleetOptions) *FleetHandler {
	if opts.Title == "" {
		opts.Title = "stormtune fleet"
	}
	h := &FleetHandler{
		fleet:    f,
		opts:     opts,
		mux:      http.NewServeMux(),
		sessions: make(map[string]*Handler),
	}
	for _, m := range f.Members() {
		if m.Recorder == nil {
			continue
		}
		info := map[string]any{"fleet": opts.Title, "session": m.Name}
		for k, v := range opts.SessionInfo[m.Name] {
			info[k] = v
		}
		h.sessions[m.Name] = New(m.Recorder, Options{
			Title: opts.Title + " · " + m.Name,
			Info:  info,
		})
	}
	h.mux.HandleFunc("GET /{$}", h.handlePage)
	h.mux.HandleFunc("GET /api/fleet", h.handleFleet)
	h.mux.HandleFunc("GET /sessions/{name}/", h.handleSession)
	h.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return h
}

// ServeHTTP implements http.Handler.
func (h *FleetHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

func (h *FleetHandler) handlePage(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(fleetHTML)
}

// State assembles the /api/fleet document.
func (h *FleetHandler) State() FleetState {
	fs := h.fleet.Status()
	st := FleetState{
		Title:       h.opts.Title,
		Slots:       fs.Slots,
		InFlight:    fs.InFlight,
		Best:        fs.Best,
		BestSession: fs.BestSession,
		Done:        fs.Done,
		Sessions:    make([]FleetSessionState, 0, len(fs.Sessions)),
		Info:        h.opts.Info,
	}
	for _, ss := range fs.Sessions {
		entry := FleetSessionState{FleetSessionStatus: ss}
		if _, ok := h.sessions[ss.Name]; ok {
			base := "/sessions/" + ss.Name
			entry.URL = base + "/"
			entry.StateURL = base + "/api/state"
			entry.EventsURL = base + "/api/events"
		}
		st.Sessions = append(st.Sessions, entry)
	}
	if h.opts.PoolStats != nil {
		st.Workers = h.opts.PoolStats()
	}
	return st
}

func (h *FleetHandler) handleFleet(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(h.State())
}

// handleSession routes /sessions/{name}/... into the member's own
// dashboard handler, prefix-stripped so the single-session routes
// (/, /api/state, /api/events, /healthz) apply unchanged.
func (h *FleetHandler) handleSession(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sh, ok := h.sessions[name]
	if !ok {
		http.NotFound(w, r)
		return
	}
	http.StripPrefix("/sessions/"+name, sh).ServeHTTP(w, r)
}
