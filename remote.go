package stormtune

import (
	"context"
	"fmt"
	"strings"

	"stormtune/internal/remote"
)

// Remote evaluation: any Backend can be served as a JSON-over-HTTP
// evaluation service (the `stormtune serve` subcommand does this for
// the bundled simulators) and driven from another process through a
// RemoteBackend client — the decoupled tuner-as-a-service deployment
// where trials run on machines the library does not control. A
// BackendServer is multi-tenant: it registers any number of topologies
// and routes each trial by its structural fingerprint, optionally
// behind bearer-token auth and admission control. Lost measurements
// (timeouts, dropped connections, crashed workers) surface as Backend
// errors for the session's RetryPolicy to absorb; admission refusals
// are consumed by NewBackendPool, which sheds the trial to a
// less-loaded worker.
type (
	// RemoteBackend is a Backend that evaluates trials by POSTing them
	// to a remote evaluation server. Safe for concurrent trials; combine
	// several with NewBackendPool to drive a pool of worker processes
	// from one session.
	RemoteBackend = remote.Backend
	// RemoteBackendOptions configure the client: HTTP client, bearer
	// token (Auth), and the Transport round-trip knobs (transparent
	// transport-level retries and their backoff).
	RemoteBackendOptions = remote.BackendOptions
	// RemoteCredentials is the bearer-token identity shared by client
	// and server options; the zero value is an open endpoint.
	RemoteCredentials = remote.Credentials
	// RemoteTransport bundles the client round-trip knobs — transport
	// retries and backoff — shared by single backends and every member
	// of a pool.
	RemoteTransport = remote.Transport
	// RemoteInfo describes a worker: every topology it serves, its live
	// load, and whether it requires auth.
	RemoteInfo = remote.Info
	// RemoteTopology describes one served topology (name, operator
	// count, metric, structural fingerprint — the /run routing key).
	RemoteTopology = remote.TopologyInfo
	// BackendServer is a multi-tenant evaluation server: Register adds
	// topologies, Handler exposes POST /run, GET /info and GET /healthz.
	BackendServer = remote.Server
	// BackendServerOptions configure a BackendServer: bearer-token auth,
	// admission control, an optional per-run wall-clock cap, and
	// deterministic fault injection for retry-path testing.
	BackendServerOptions = remote.ServerOptions
	// RemoteAdmission bounds a server's concurrent evaluations; refused
	// runs carry structured backpressure (429, queue depth, estimated
	// wait, Retry-After) that pools use to shed trials.
	RemoteAdmission = remote.Admission
	// RemoteAuthError reports a request rejected by bearer-token auth;
	// it is permanent — the session fails the trial without burning its
	// retry budget.
	RemoteAuthError = remote.AuthError
	// RemoteUnknownFingerprintError reports a trial routed to a worker
	// that does not serve its topology; Served lists what it does serve.
	RemoteUnknownFingerprintError = remote.UnknownFingerprintError
	// RemoteOverloadedError reports an admission-control refusal: the
	// worker was at capacity and the evaluation never started.
	RemoteOverloadedError = remote.OverloadedError
)

// NewRemoteBackend builds a client for the evaluation server at baseURL
// (e.g. "http://127.0.0.1:8077").
func NewRemoteBackend(baseURL string, opts RemoteBackendOptions) *RemoteBackend {
	return remote.NewBackend(baseURL, opts)
}

// NewBackendServer builds an empty multi-tenant evaluation server;
// register the topologies it serves with RegisterTopology (or the
// server's own Register for custom RemoteTopology descriptions) and
// mount server.Handler(). `stormtune serve` is a thin wrapper around
// it.
func NewBackendServer(opts BackendServerOptions) *BackendServer {
	return remote.NewServer(opts)
}

// RegisterTopology registers a topology and the backend measuring it
// with a server, deriving the RemoteTopology description — name,
// operator count, metric, structural fingerprint — from the topology
// itself so routing and CheckRemoteBackend verification work without
// hand-written metadata.
func RegisterTopology(s *BackendServer, t *Topology, b Backend, metric Metric) error {
	if t == nil {
		return fmt.Errorf("stormtune: nil topology")
	}
	return s.Register(RemoteTopology{
		Topology:    t.Name,
		Nodes:       t.N(),
		Metric:      metric.String(),
		Fingerprint: TopologyFingerprint(t),
	}, b)
}

// CheckRemoteBackend fetches the worker's /info and verifies it serves
// the given topology under the given throughput metric: the topology's
// structural fingerprint must appear in the served set (name and node
// count cannot tell apart two synthetic topologies generated with
// different seeds) and the matched registration's metric must agree —
// the right topology measured on the wrong axis silently optimizes the
// wrong thing. Call it before tuning to fail fast on a client/worker
// mismatch; it also primes the client's cached fingerprint set, which
// NewBackendPool routes by. A server that does not describe itself at
// all (a custom handler with no registered descriptions) skips the
// checks; registrations without a fingerprint fall back to name and
// node-count matching.
func CheckRemoteBackend(ctx context.Context, b *RemoteBackend, t *Topology, metric Metric) (RemoteInfo, error) {
	info, err := b.Info(ctx)
	if err != nil {
		return info, err
	}
	if len(info.Topologies) == 0 {
		return info, nil // server did not describe itself at all
	}
	want := TopologyFingerprint(t)
	mismatch := func(reason string) error {
		return &RemoteMismatchError{
			URL: b.URL(), Served: info,
			Want: t.Name, WantNodes: t.N(), WantFingerprint: want,
			ServedFingerprints: info.Fingerprints(),
			Reason:             reason,
		}
	}
	ti, ok := info.Lookup(want)
	if !ok {
		// A registration without a fingerprint (a custom embedder's
		// hand-written description) can still match structurally.
		for _, cand := range info.Topologies {
			if cand.Fingerprint != "" {
				continue
			}
			if cand.Nodes != 0 && cand.Nodes != t.N() {
				continue
			}
			if cand.Topology != "" && t.Name != "" && cand.Topology != t.Name {
				continue
			}
			ti, ok = cand, true
			break
		}
	}
	if !ok {
		return info, mismatch("no served topology matches the structural fingerprint")
	}
	if ti.Topology != "" && t.Name != "" && ti.Topology != t.Name {
		return info, mismatch("topology names differ")
	}
	if ti.Metric != "" && ti.Metric != metric.String() {
		return info, mismatch("throughput metrics differ")
	}
	return info, nil
}

// TopologyFingerprint renders a topology's structural hash in the form
// RemoteTopology.Fingerprint carries and /run routes by
// (RegisterTopology fills it in automatically; custom embedders should
// too).
func TopologyFingerprint(t *Topology) string {
	return fmt.Sprintf("%016x", t.Fingerprint())
}

// RemoteMismatchError reports a worker that does not serve the topology
// a session tunes: the requested fingerprint is missing from the served
// set, or the matched registration disagrees on name or metric.
type RemoteMismatchError struct {
	// URL is the worker base URL.
	URL string
	// Served is the worker's full /info description.
	Served RemoteInfo
	// Want and WantNodes describe the topology the session tunes;
	// WantFingerprint is its structural hash — the routing key that was
	// looked up.
	Want            string
	WantNodes       int
	WantFingerprint string
	// ServedFingerprints is the worker's served fingerprint set, in
	// registration order.
	ServedFingerprints []string
	// Reason says which check failed.
	Reason string
}

// Error implements error.
func (e *RemoteMismatchError) Error() string {
	names := make([]string, 0, len(e.Served.Topologies))
	for _, ti := range e.Served.Topologies {
		names = append(names, ti.Topology)
	}
	serves := strings.Join(names, ", ")
	if serves == "" {
		serves = "nothing it describes"
	}
	return fmt.Sprintf("stormtune: server %s serves %s — refusing to tune %s [%s] against it (%s)",
		e.URL, serves, e.Want, e.WantFingerprint, e.Reason)
}
