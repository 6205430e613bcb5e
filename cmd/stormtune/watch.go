package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"stormtune"
)

// runWatch implements `stormtune watch`: a tuning session that never
// ends. The simulated workload drifts per -drift, a degradation
// monitor watches the incumbent, and sustained degradation or
// backpressure triggers a conservative trust-region retune. The watch
// runs until Ctrl-C, -horizon simulated seconds, or -episodes retune
// episodes; -snapshot persists periodic state for `-resume`.
func runWatch(args []string) {
	fs := flag.NewFlagSet("stormtune watch", flag.ExitOnError)
	tf := addTopoFlags(fs)
	steps := fs.Int("steps", 40, "initial tuning session's evaluation budget")
	retuneSteps := fs.Int("retune-steps", 0, "per-episode retune budget (0 = max(8, steps/4))")
	params := fs.String("params", "h", "searched parameters: h, h-bs-bp or bs-bp-cc")
	drift := fs.String("drift", "flash:at=3600,mag=2",
		"workload drift spec: 'kind:key=val,...' joined by ';' (kinds: diurnal, flash, trend, squall); 'none' disables")
	baseLoad := fs.Float64("base-load", 0, "offered load before drift, tuples/s (0 = 60% of the template capacity)")
	trialCost := fs.Float64("trial-cost", 60, "simulated seconds one trial evaluation costs")
	holdInterval := fs.Float64("hold-interval", 60, "simulated seconds between monitoring samples")
	episodes := fs.Int("episodes", 0, "stop after this many retune episodes (0 = unlimited)")
	horizon := fs.Float64("horizon", 0, "stop when the simulated clock reaches this many seconds (0 = none)")
	cooldown := fs.Float64("cooldown", 0, "minimum simulated seconds between retune triggers")
	throttle := fs.Duration("throttle", 0, "wall-clock pacing per monitoring sample (0 = run the timeline flat out)")
	dashAddr := fs.String("dash", "", "serve a live dashboard on this address (e.g. :8090) for the duration of the watch")
	ef := addEvalFlags(fs, false, "record completed trials into the session archive at DIR (evidence for later warm starts)")
	snapshotPath := fs.String("snapshot", "", "persist periodic watch snapshots to this file")
	snapshotEvery := fs.Int("snapshot-every", 10, "snapshot every N completed trials or monitoring samples (with -snapshot)")
	resumePath := fs.String("resume", "", "resume from a watch snapshot file")
	quiet := fs.Bool("quiet", false, "suppress the live progress lines")
	fs.Parse(args)

	t, ev, _, err := tf.build()
	if err != nil {
		fatal(err)
	}
	template := tf.toSpec().template(t)
	set, err := paramSet(*params)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	profile, err := stormtune.ParseDrift(*drift)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -drift: %v\n", err)
		os.Exit(2)
	}
	if *baseLoad <= 0 {
		// Default the offered plateau to 60% of the template
		// configuration's measured capacity: comfortably satisfiable, so
		// drift upward has something to outgrow.
		*baseLoad = 0.6 * ev.Run(template, 0).Throughput
		if *baseLoad <= 0 {
			*baseLoad = 100
		}
	}
	backend := stormtune.AsBackend(stormtune.Drifting(ev, profile, *baseLoad))

	opts := stormtune.WatchOptions{
		WatchPlan: stormtune.WatchPlan{
			Steps:        *steps,
			RetuneSteps:  *retuneSteps,
			TrialCost:    *trialCost,
			HoldInterval: *holdInterval,
			Horizon:      *horizon,
			MaxEpisodes:  *episodes,
		},
		Set:              set,
		Template:         &template,
		Seed:             *tf.seed,
		Monitor:          stormtune.MonitorOptions{Cooldown: *cooldown},
		Throttle:         *throttle,
		OptimizerOptions: optimizer,
	}
	if ef.wantsRetry() {
		opts.Retry = ef.retryPolicy()
	}

	// Live progress from the watch's event stream.
	var trials int
	opts.Observer = stormtune.ObserverFunc(func(e stormtune.Event) {
		switch ev := e.(type) {
		case stormtune.TrialCompleted:
			trials++
			if !*quiet {
				fmt.Printf("\rtrial %4d   t=%8.0fs", trials, ev.Trial.SimTime)
			}
		case stormtune.HoldSampled:
			if !*quiet {
				state := "ok"
				if ev.Result.Backpressured {
					state = "backpressure"
				}
				fmt.Printf("\rhold t=%8.0fs   delivered %8.1f / offered %8.1f   %s        ",
					ev.SimTime, ev.Result.Throughput, ev.Result.OfferedLoad, state)
			}
		case stormtune.RetuneTriggered:
			fmt.Printf("\nretune episode %d triggered at t=%.0fs: %s (baseline %.3f, current %.3f)\n",
				ev.Episode, ev.SimTime, ev.Reason, ev.Baseline, ev.Current)
		case stormtune.RetuneCompleted:
			fmt.Printf("\nretune episode %d done at t=%.0fs after %d trials: best %.1f tuples/s\n",
				ev.Episode, ev.SimTime, ev.Steps, ev.Best.Result.Throughput)
		}
	})

	if *dashAddr != "" {
		opts.Recorder = stormtune.NewRecorder()
	}
	// The session archive: the watch records every completed trial —
	// initial tune and retune episodes alike — as evidence for later
	// warm starts. A watch never warm-starts itself; its retunes are
	// trust-region moves around the live incumbent.
	arch, err := ef.openArchive()
	if err != nil {
		fatal(err)
	}
	if arch != nil {
		defer arch.Close()
		opts.Archive = arch
	}
	if *snapshotPath != "" {
		path := *snapshotPath
		opts.SnapshotEvery = *snapshotEvery
		opts.Snapshot = func(st *stormtune.WatchState) {
			if err := st.SaveFile(path); err != nil {
				fmt.Fprintf(os.Stderr, "\nsnapshot: %v\n", err)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var w *stormtune.Watcher
	if *resumePath != "" {
		st, err := stormtune.LoadWatchStateFile(*resumePath)
		if err != nil {
			fatal(err)
		}
		w, err = stormtune.ResumeWatcher(st, t, backend, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("resuming watch of %s at t=%.0fs (phase %s, %d episodes)\n",
			t.Name, st.Watch.Clock, st.Watch.Phase, st.Watch.Episode)
	} else {
		w, err = stormtune.NewWatcher(t, backend, opts)
		if err != nil {
			fatal(err)
		}
	}
	if arch != nil {
		fmt.Printf("archiving as %s\n", w.ArchiveKey())
	}

	stopDash := func() {}
	if *dashAddr != "" {
		stopDash = serveDashboard(*dashAddr, stormtune.NewDashboard(opts.Recorder, stormtune.DashboardOptions{
			Title: "stormtune watch · " + t.Name,
			Info: map[string]any{
				"topology": t.Name, "mode": "continuous tuning",
				"drift": *drift, "baseLoad": *baseLoad, "steps": *steps,
			},
		}))
		fmt.Printf("dashboard on http://%s/ — GET /api/state, SSE /api/events\n", displayAddr(*dashAddr))
	}

	fmt.Printf("watching %s (%d nodes): drift %q, offered %.1f tuples/s, tune %d steps then hold\n",
		t.Name, t.N(), *drift, *baseLoad, *steps)

	runErr := w.Run(ctx)
	if !*quiet {
		fmt.Println()
	}
	stopDash()
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		fatal(runErr)
	}
	// A final snapshot so an interrupted watch resumes from its very
	// last state, not the last periodic one.
	if *snapshotPath != "" {
		if err := w.Snapshot().SaveFile(*snapshotPath); err != nil {
			fmt.Fprintf(os.Stderr, "final snapshot: %v\n", err)
		}
	}
	cfg, y, ok := w.Incumbent()
	if !ok {
		fmt.Fprintln(os.Stderr, "watch ended before the initial tune completed")
		os.Exit(1)
	}
	fmt.Printf("sim time:      %.0fs\n", w.SimTime())
	fmt.Printf("episodes:      %d\n", w.Episodes())
	fmt.Printf("incumbent:     %.1f tuples/s\n", y)
	fmt.Printf("hints:         %v\n", cfg.NormalizedHints())
	if runErr != nil {
		fmt.Println("interrupted; snapshot (if any) resumes with -resume")
	}
}
