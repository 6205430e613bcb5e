// Shared wiring for the subcommands that drive tuning sessions. tune,
// fleet and watch all take the same evaluation-robustness and archive
// knobs and serve the same live dashboard; registering them through one
// helper keeps the names, defaults and help strings from drifting apart.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"stormtune"
)

// optimizer is the Bayesian optimizer configuration of every session
// the CLI runs: the library defaults, with each GP conditioned on a
// sliding window of the 60 most recent observations so long and
// continuous runs keep a bounded ask cost.
var optimizer = stormtune.OptimizerOptions{MaxGPPoints: 60}

// serveDashboard binds addr synchronously — a bad address or taken port
// fails the command before any session starts — and serves handler on
// it in the background. Call the returned stop once the run is over:
// every event is in the recorder by then, so SSE subscribers drain and
// hang up on their own, and the graceful shutdown only bounds the wait.
func serveDashboard(addr string, handler http.Handler) (stop func()) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(fmt.Errorf("dashboard: %w", err))
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- stormtune.ServeDashboardListener(ctx, ln, handler, 3*time.Second)
	}()
	return func() {
		cancel()
		if err := <-errc; err != nil {
			fmt.Fprintln(os.Stderr, "dashboard shutdown:", err)
		}
	}
}

// evalFlags bundles the per-trial evaluation knobs — retry policy,
// attempt deadline, session archive — shared by the tune, fleet and
// watch subcommands.
type evalFlags struct {
	retries      *int
	retryBackoff *time.Duration
	trialTimeout *time.Duration
	archiveDir   *string
}

// addEvalFlags registers the shared evaluation flags on fs. Subcommands
// whose sessions run on a simulated timeline (watch) pass
// withTrialTimeout=false: a wall-clock attempt deadline has no meaning
// there, and an accepted-but-ignored flag would be worse than none.
func addEvalFlags(fs *flag.FlagSet, withTrialTimeout bool, archiveHelp string) evalFlags {
	ef := evalFlags{
		retries:      fs.Int("retries", 3, "evaluation attempts per trial before recording a pessimistic failure"),
		retryBackoff: fs.Duration("retry-backoff", time.Second, "wait before a trial's first retry (doubles per attempt)"),
		archiveDir:   fs.String("archive", "", archiveHelp),
	}
	if withTrialTimeout {
		ef.trialTimeout = fs.Duration("trial-timeout", 0, "deadline per evaluation attempt (0 = none)")
	}
	return ef
}

// retryPolicy returns the parsed retry policy.
func (ef evalFlags) retryPolicy() stormtune.RetryPolicy {
	return stormtune.RetryPolicy{MaxAttempts: *ef.retries, Backoff: *ef.retryBackoff}
}

// wantsRetry reports whether the flags ask for more than one attempt.
func (ef evalFlags) wantsRetry() bool { return *ef.retries > 1 }

// trialDeadline returns the per-attempt deadline (zero when the flag was
// not registered or not set).
func (ef evalFlags) trialDeadline() time.Duration {
	if ef.trialTimeout == nil {
		return 0
	}
	return *ef.trialTimeout
}

// openArchive opens the session archive named by -archive; (nil, nil)
// when the flag is unset. The caller owns Close.
func (ef evalFlags) openArchive() (*stormtune.DiskArchive, error) {
	if *ef.archiveDir == "" {
		return nil, nil
	}
	arch, err := stormtune.OpenArchive(*ef.archiveDir)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	return arch, nil
}

// remoteOptions builds the client options every remote worker connection
// uses: the shared bearer token and the transport round-trip knobs. The
// trial-level retry policy stays with the session; these retries are
// transparent transport-level ones.
func remoteOptions(token string) stormtune.RemoteBackendOptions {
	return stormtune.RemoteBackendOptions{
		Auth:      stormtune.RemoteCredentials{Token: token},
		Transport: stormtune.RemoteTransport{Retries: 2},
	}
}

// applyStrategy sets up opts for a strategy name: the paper's linear
// searches pla and ipla stop after 3 consecutive zero-throughput
// trials, bo is the default Bayesian optimizer, and ibo searches the
// informed hint set.
func applyStrategy(opts *stormtune.TunerOptions, name string, t *stormtune.Topology, template stormtune.Config) error {
	switch name {
	case "pla":
		opts.Strategy = stormtune.NewPLA(t, template)
		opts.StopAfterZeros = 3
	case "ipla":
		opts.Strategy = stormtune.NewIPLA(t, template)
		opts.StopAfterZeros = 3
	case "bo":
	case "ibo":
		opts.Set = stormtune.InformedHints
	default:
		return fmt.Errorf("unknown strategy %q", name)
	}
	return nil
}

// splitList splits a comma-separated flag value, trimming whitespace and
// dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}
