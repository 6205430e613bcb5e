package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"stormtune/internal/core"
	"stormtune/internal/storm"
)

// BackendOptions configure a remote backend client.
type BackendOptions struct {
	// HTTPClient overrides the default client (connection pooling makes
	// the default fine for concurrent trials; override for custom
	// transports or TLS).
	HTTPClient *http.Client
	// Auth carries the bearer token sent on /run and /info. Leave zero
	// for open workers.
	Auth Credentials
	// Transport bundles the transport retry knobs; see
	// the Transport type.
	Transport Transport
}

// Backend is the client side of a remote evaluation service: a
// core.Backend that runs each trial by POSTing it to a Server (e.g. a
// `stormtune serve` worker process). It is safe for concurrent trials
// — RunAsync can keep several requests in flight against one worker,
// or combine several Backends with core.NewPoolBackend to spread trials
// over a worker pool.
type Backend struct {
	base string
	c    *http.Client
	opts BackendOptions

	mu sync.Mutex
	// served caches the fingerprint set from the last successful Info
	// call, letting the pool route without a network round trip.
	served []string
}

// NewBackend builds a client for the server at baseURL (e.g.
// "http://127.0.0.1:8077").
func NewBackend(baseURL string, opts BackendOptions) *Backend {
	c := opts.HTTPClient
	if c == nil {
		c = &http.Client{}
	}
	if opts.Transport.Backoff <= 0 {
		opts.Transport.Backoff = 100 * time.Millisecond
	}
	return &Backend{base: strings.TrimRight(baseURL, "/"), c: c, opts: opts}
}

// URL returns the server base URL this client talks to.
func (b *Backend) URL() string { return b.base }

// Fingerprints returns the served fingerprint set cached by the last
// successful Info call (nil before the first).
func (b *Backend) Fingerprints() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.served...)
}

// Serves reports whether the worker's cached registry covers the
// fingerprint (empty matches a single-topology worker, mirroring the
// server's routing shortcut).
func (b *Backend) Serves(fingerprint string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if fingerprint == "" {
		return len(b.served) == 1
	}
	for _, fp := range b.served {
		if fp == fingerprint {
			return true
		}
	}
	return false
}

// Info fetches the worker's description — every topology it serves plus
// its live load — and refreshes the cached fingerprint set.
func (b *Backend) Info(ctx context.Context) (Info, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/info", nil)
	if err != nil {
		return Info{}, err
	}
	b.authorize(req)
	resp, err := b.c.Do(req)
	if err != nil {
		return Info{}, &TransportError{URL: b.base, Err: fmt.Errorf("remote: info %s: %w", b.base, err)}
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusUnauthorized {
		return Info{}, &AuthError{URL: b.base, Detail: "info rejected"}
	}
	if resp.StatusCode != http.StatusOK {
		return Info{}, fmt.Errorf("remote: info %s: HTTP %d", b.base, resp.StatusCode)
	}
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return Info{}, fmt.Errorf("remote: info %s: %w", b.base, err)
	}
	b.mu.Lock()
	b.served = info.Fingerprints()
	b.mu.Unlock()
	return info, nil
}

// CheckHealth probes the worker by refetching /info, refreshing the
// cached fingerprint set as a side effect. The pool uses it to re-probe
// evicted members before readmitting them.
func (b *Backend) CheckHealth(ctx context.Context) error {
	_, err := b.Info(ctx)
	return err
}

func (b *Backend) authorize(req *http.Request) {
	if b.opts.Auth.Token != "" {
		req.Header.Set("Authorization", "Bearer "+b.opts.Auth.Token)
	}
}

// Run implements core.Backend: serialize the trial, POST it, decode the
// measurement. Transport failures are retried per the options; any
// error that survives is a lost evaluation for the session's
// RetryPolicy to handle — except the typed permanent/overloaded errors,
// which the session and pool recognize and handle without burning
// retry budget.
func (b *Backend) Run(ctx context.Context, tr core.Trial) (storm.Result, error) {
	body, err := json.Marshal(RunRequest{
		Trial: TrialMeta{
			ID:        tr.ID,
			RunIndex:  tr.RunIndex,
			Attempt:   tr.Attempt,
			TimeoutMS: int64(tr.Timeout / time.Millisecond),
		},
		Config:      tr.Config,
		Fingerprint: tr.Fingerprint,
	})
	if err != nil {
		return storm.Result{}, fmt.Errorf("remote: encoding trial %d: %w", tr.ID, err)
	}

	var lastErr error
	for try := 0; try <= b.opts.Transport.Retries; try++ {
		if try > 0 {
			backoff := b.opts.Transport.Backoff << (try - 1)
			t := time.NewTimer(backoff)
			select {
			case <-ctx.Done():
				t.Stop()
				return storm.Result{}, ctx.Err()
			case <-t.C:
			}
		}
		res, retryable, err := b.post(ctx, body)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if !retryable || ctx.Err() != nil {
			return storm.Result{}, lastErr
		}
	}
	// The transport retry budget is spent without ever reaching the
	// server: surface that as unreachability for pool health tracking.
	return storm.Result{}, &TransportError{URL: b.base, Err: lastErr}
}

// post performs one round trip. retryable marks transport-level
// failures (no HTTP response reached us); a server-reported error is
// authoritative and returned as-is — mapped to its typed form where the
// status and code identify one.
func (b *Backend) post(ctx context.Context, body []byte) (storm.Result, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+"/run", bytes.NewReader(body))
	if err != nil {
		return storm.Result{}, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	b.authorize(req)
	resp, err := b.c.Do(req)
	if err != nil {
		return storm.Result{}, true, fmt.Errorf("remote: %s: %w", b.base, err)
	}
	defer resp.Body.Close()
	var rr RunResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&rr); err != nil {
		return storm.Result{}, true, fmt.Errorf("remote: %s: decoding response (HTTP %d): %w", b.base, resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return storm.Result{}, false, b.responseError(resp, rr)
	}
	if rr.Result == nil {
		return storm.Result{}, false, fmt.Errorf("remote: %s: HTTP 200 with no result", b.base)
	}
	return *rr.Result, false, nil
}

// responseError maps a decoded non-2xx reply to its typed error where
// the protocol defines one, falling back to a generic message.
func (b *Backend) responseError(resp *http.Response, rr RunResponse) error {
	msg := rr.Error
	if msg == "" {
		msg = "no error message"
	}
	switch {
	case resp.StatusCode == http.StatusUnauthorized || rr.Code == CodeAuth:
		return &AuthError{URL: b.base, Detail: msg}
	case rr.Code == CodeUnknownFingerprint:
		// Want is filled by the caller that knows the trial; here we only
		// know what the worker serves.
		return &UnknownFingerprintError{URL: b.base, Served: rr.Served}
	case resp.StatusCode == http.StatusTooManyRequests || rr.Code == CodeOverloaded:
		retryAfter := time.Duration(0)
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil {
				retryAfter = time.Duration(secs) * time.Second
			}
		}
		return &OverloadedError{
			URL:        b.base,
			QueueDepth: rr.QueueDepth,
			EstWait:    time.Duration(rr.EstWaitMS) * time.Millisecond,
			RetryAfter: retryAfter,
		}
	}
	return fmt.Errorf("remote: %s: HTTP %d: %s", b.base, resp.StatusCode, msg)
}
