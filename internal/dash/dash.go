// Package dash serves a live tuning-session dashboard over HTTP: a
// JSON state snapshot, a Server-Sent-Events stream of the session's
// typed events with replay-from-ID for late subscribers, a health
// probe, and a small self-refreshing HTML page — everything a human
// (or a CI smoke test) needs to watch a run converge, with no
// dependencies beyond the standard library.
//
// The handler is a read-only view over a core.Recorder; wire the
// Recorder into the session as its Observer (or one member of a
// MultiObserver) and serve the handler for the duration of the run.
package dash

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"stormtune/internal/core"
)

//go:embed page.html
var pageHTML []byte

// WorkerStats describes one member of a backend pool for the state
// JSON: how many trials it is evaluating right now and how many it has
// finished or lost. It mirrors core.WorkerStats.
type WorkerStats = core.WorkerStats

// Options configure a dashboard handler.
type Options struct {
	// Title is shown on the HTML page and in /api/state (default
	// "stormtune").
	Title string
	// Info carries static run metadata — topology, strategy, budget —
	// merged into /api/state under "info".
	Info map[string]any
	// PoolStats, when set, is sampled on every /api/state request and
	// surfaced under "workers" — per-worker in-flight counts when the
	// session tunes against a backend pool.
	PoolStats func() []WorkerStats
}

// heartbeat is the idle interval between SSE keep-alive comments.
const heartbeat = 15 * time.Second

// Handler is the dashboard's HTTP surface:
//
//	GET /            the embedded live page
//	GET /api/state   full JSON snapshot (recorder state + workers + info)
//	GET /api/events  SSE stream; ?after=SEQ or Last-Event-ID replays
//	                 history from that sequence number before following
//	GET /healthz     liveness probe
type Handler struct {
	rec  *core.Recorder
	opts Options
	mux  *http.ServeMux
}

// New builds a dashboard over a recorder.
func New(rec *core.Recorder, opts Options) *Handler {
	if opts.Title == "" {
		opts.Title = "stormtune"
	}
	h := &Handler{rec: rec, opts: opts, mux: http.NewServeMux()}
	h.mux.HandleFunc("GET /{$}", h.handlePage)
	h.mux.HandleFunc("GET /api/state", h.handleState)
	h.mux.HandleFunc("GET /api/events", h.handleEvents)
	h.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

func (h *Handler) handlePage(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(pageHTML)
}

// State is the /api/state document.
type State struct {
	Title string `json:"title"`
	core.RecorderSnapshot
	Info    map[string]any `json:"info,omitempty"`
	Workers []WorkerStats  `json:"workers,omitempty"`
}

func (h *Handler) state() State {
	st := State{
		Title:            h.opts.Title,
		RecorderSnapshot: h.rec.Snapshot(),
		Info:             h.opts.Info,
	}
	if h.opts.PoolStats != nil {
		st.Workers = h.opts.PoolStats()
	}
	return st
}

func (h *Handler) handleState(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(h.state())
}

// handleEvents streams the recorder history as Server-Sent Events.
// Replay starts after the sequence number in ?after= (or the standard
// Last-Event-ID header a reconnecting EventSource sends); omitting both
// replays the whole history. Each event is
//
//	id: <seq>
//	event: <kind>
//	data: <RecordedEvent JSON>
//
// and the stream closes itself once the session is done and fully
// delivered (a final "done" event), so consumers — curl in CI included
// — terminate with the run instead of hanging on an idle socket.
func (h *Handler) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	after := int64(0)
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			http.Error(w, "bad after parameter", http.StatusBadRequest)
			return
		}
		after = n
	} else if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			after = n
		}
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": stormtune event stream, replaying after seq %d\n\n", after)
	fl.Flush()

	ctx := r.Context()
	ticker := time.NewTicker(heartbeat)
	defer ticker.Stop()
	for {
		// Read Done before draining: OnEvent appends pass_completed and
		// sets done atomically, so "done was already set AND the drain
		// came back empty" proves the history was fully delivered —
		// checking Done after an empty drain instead would race with the
		// final events and hang up without sending them.
		done := h.rec.Done()
		evs, wait := h.rec.EventsSince(after)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				// Skip the unmarshalable event but still advance past it,
				// or the follow loop would re-fetch it forever.
				after = ev.Seq
				continue
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data); err != nil {
				return // subscriber gone (or server force-closed)
			}
			after = ev.Seq
		}
		if len(evs) > 0 {
			fl.Flush()
			continue
		}
		// History drained; if the session is over, say goodbye and hang
		// up — everything up to pass_completed has been delivered.
		if done {
			fmt.Fprintf(w, "event: done\ndata: {\"seq\":%d}\n\n", after)
			fl.Flush()
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-wait:
		case <-ticker.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// Serve runs the dashboard on addr until ctx is cancelled, then shuts
// the server down gracefully (bounded by grace; SSE streams are closed
// forcibly after it). It returns once the server has stopped; a nil
// error means a clean shutdown. A listen error (bad address, port in
// use) is returned before any serving starts — callers that need to
// fail fast can bind themselves and use ServeListener.
func Serve(ctx context.Context, addr string, h http.Handler, grace time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return ServeListener(ctx, ln, h, grace)
}

// ServeListener is Serve over a caller-bound listener, which it takes
// ownership of. Binding first makes "the address is bad" a synchronous
// error the caller sees before committing to a run, with no polling.
func ServeListener(ctx context.Context, ln net.Listener, h http.Handler, grace time.Duration) error {
	if grace <= 0 {
		grace = 2 * time.Second
	}
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err // Serve never returns nil
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		// Idle SSE subscribers hold their connections open past the
		// grace; close them rather than leak the listener.
		srv.Close()
	}
	// Normally http.ErrServerClosed — but a Serve failure that raced the
	// cancellation (listener died as the run ended) is a real error and
	// must not be reported as a clean shutdown.
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
