package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"stormtune"
)

// params are the inputs of one run.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string // scratch files (archives, fleet logs) go below it
	sz       sizes
}

// sizes fix how much work a run does; tests shrink them.
type sizes struct {
	setupReps   int // set-up is repeated and its median reported
	warmupSteps int // steps of the untimed warm-up session in set-up

	paperSteps int
	paperMin   int

	longSteps int
	longMin   int

	poolSessions int // per fleet
	poolSteps    int
	poolMedium   int // every poolMedium-th session tunes medium
	poolMin      int // fleets
	poolFail     int // every poolFail-th /run request per worker fails

	durSessions int
	durSteps    int
	durMin      int
	donors      int
	donorSteps  int
}

// fullSizes is the benchmark as BENCHMARK.json runs it.
var fullSizes = sizes{
	setupReps:   5,
	warmupSteps: 16,

	paperSteps: 60,
	paperMin:   12,

	longSteps: 120,
	longMin:   3,

	poolSessions: 64,
	poolSteps:    12,
	poolMedium:   8,
	poolMin:      2,
	poolFail:     64,

	durSessions: 4,
	durSteps:    60,
	durMin:      2,
	donors:      4,
	donorSteps:  12,
}

// Fleet-pool traffic shape.
const (
	poolAttempts   = 3
	delayBase      = 2 * time.Millisecond
	delayAlpha     = 1.3
	delayCap       = 50 * time.Millisecond
	sampleEvery    = 8 // every 8th trial of a session is re-evaluated in process
	benchToken     = "stormbench"
	topologySeed   = 1 // the tuned topologies and their simulators are fixed
	workerCapacity = 1
)

// workload is one traffic mix of the benchmark.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, r *run) error
}

var workloads = []workload{
	{"paper-seq", "the paper's procedure: sequential 60-step BO sessions on the small topology, in process; the bo ask dominates", runPaperSeq},
	{"long-history", "120-step sessions: exact-GP cost grows with the history, so GP-path changes show; other layers idle", runLongHistory},
	{"fleet-pool", "many short sessions over a pooled, authed, flaky HTTP worker pair with heavy-tailed trial times", runFleetPool},
	{"fleet-durable", "warm-started fleet with an fsynced fleet log and a disk archive; the only durable-state workload", runFleetDurable},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

//go:embed reference.json
var referenceJSON []byte

// reference is bench/reference.json: the best throughput found per
// topology by long sessions whose seeds no workload uses.
type reference struct {
	Budget     int        `json:"budget"`
	Sessions   int        `json:"sessions"`
	SeedBase   int64      `json:"seedBase"`
	Topologies []refEntry `json:"topologies"`
}

type refEntry struct {
	Name        string  `json:"name"`
	Fingerprint string  `json:"fingerprint"`
	Best        float64 `json:"best"`
}

// topology is one tuned topology with its simulator and reference.
type topology struct {
	name string
	t    *stormtune.Topology
	spec stormtune.ClusterSpec
	tmpl stormtune.Config
	sim  stormtune.Evaluator
	ref  float64
}

// buildTopology builds a synthetic topology the way `stormtune tune
// -topology <name>` does: paper cluster, synthetic template, sink
// throughput.
func buildTopology(name string) *topology {
	t := stormtune.BuildSynthetic(name, stormtune.Condition{}, topologySeed)
	spec := stormtune.PaperCluster()
	return &topology{
		name: name,
		t:    t,
		spec: spec,
		tmpl: stormtune.DefaultSyntheticConfig(t, 1),
		sim:  stormtune.NewFluidSim(t, spec, stormtune.SinkTuples, topologySeed),
	}
}

// loadTopologies builds the named topologies and attaches their
// reference values; a topology whose structure no longer matches the
// reference is an error, since its quality numbers would be meaningless.
func loadTopologies(names ...string) (map[string]*topology, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	out := map[string]*topology{}
	for _, n := range names {
		tp := buildTopology(n)
		for _, e := range ref.Topologies {
			if e.Name == n {
				if fp := stormtune.TopologyFingerprint(tp.t); fp != e.Fingerprint {
					return nil, fmt.Errorf("reference.json: %s has fingerprint %s, the topology now %s; rerun -reference", n, e.Fingerprint, fp)
				}
				tp.ref = e.Best
			}
		}
		if tp.ref <= 0 {
			return nil, fmt.Errorf("reference.json has no value for %s; rerun -reference", n)
		}
		out[n] = tp
	}
	return out, nil
}

// derive maps the workload seed to the seed of item i of a stream, in
// [1, 2^31): session seeds, donors and delays all come from here, and
// the reference's seeds lie above this range.
func derive(seed int64, stream string, i int) int64 {
	h := uint64(14695981039346656037)
	for _, c := range []byte(stream) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	x := splitmix(h ^ splitmix(uint64(seed)) ^ uint64(i+1)*0x9e3779b97f4a7c15)
	return int64(x%(1<<31-1)) + 1
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// trialDelay is the injected duration of one fleet-pool trial: a
// Pareto draw keyed by workload seed, configuration and run index, so a
// retried attempt takes as long as the first.
func trialDelay(seed int64, fp uint64, runIndex int) time.Duration {
	x := splitmix(uint64(derive(seed, "delay", 0)) ^ fp ^ uint64(runIndex)*0xd1b54a32d192ed03)
	u := (float64(x>>11) + 1) / (1 << 53) // in (0, 1]
	d := time.Duration(float64(delayBase) * math.Pow(u, -1/delayAlpha))
	if d > delayCap {
		d = delayCap
	}
	return d
}

// warmUp runs one short untimed session so the first measured trial
// does not pay for first-use costs.
func (r *run) warmUp(ctx context.Context, tp *topology) error {
	s, err := r.newSession("warm-up", tp, r.p.sz.warmupSteps, 1, stormtune.AsBackend(tp.sim), nil)
	if err != nil {
		return err
	}
	_, err = s.tn.Run(ctx)
	return err
}

func runPaperSeq(ctx context.Context, r *run) error {
	return r.sequential(ctx, "paper", r.p.sz.paperSteps, r.p.sz.paperMin, true)
}

func runLongHistory(ctx context.Context, r *run) error {
	return r.sequential(ctx, "long", r.p.sz.longSteps, r.p.sz.longMin, false)
}

// sequential runs one closed-loop session at a time on the small
// topology's in-process simulator, with no Recorder — the paper's
// procedure.
func (r *run) sequential(ctx context.Context, stream string, steps, minUnits int, rerun bool) error {
	var tp *topology
	err := r.runSetup(r.p.sz.setupReps, func() error {
		tops, err := loadTopologies("small")
		if err != nil {
			return err
		}
		tp = tops["small"]
		return r.warmUp(ctx, tp)
	}, func() {})
	if err != nil {
		return err
	}
	err = r.measure(minUnits, func(i int, origin int64) error {
		s, err := r.newSession(fmt.Sprintf("%s-%d", stream, i), tp, steps, derive(r.p.seed, stream, i),
			stormtune.AsBackend(tp.sim), nil)
		if err != nil {
			return err
		}
		s.origin = origin
		r.sessions = append(r.sessions, s)
		if _, err := s.tn.Run(ctx); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.checkAccounting()
	if rerun {
		return r.checkRerun(ctx, r.sessions[0])
	}
	return nil
}

// checkRerun runs a session again from scratch and requires records
// bit-identical to the measured run.
func (r *run) checkRerun(ctx context.Context, s *session) error {
	again, err := r.newSession(s.name+"-rerun", s.topo, s.budget, s.seed, stormtune.AsBackend(s.topo.sim), nil)
	if err != nil {
		return err
	}
	res, err := again.tn.Run(ctx)
	if err != nil {
		return err
	}
	if len(res.Records) != len(s.res.Records) {
		r.failf("%s: rerun has %d records, first run %d", s.name, len(res.Records), len(s.res.Records))
		return nil
	}
	for i, a := range s.res.Records {
		b := res.Records[i]
		if a.Step != b.Step || a.Config.Fingerprint() != b.Config.Fingerprint() ||
			a.Result.Throughput != b.Result.Throughput || a.Result.Failed != b.Result.Failed {
			r.failf("%s: rerun diverges at step %d", s.name, a.Step)
			return nil
		}
	}
	return nil
}

// delayedEval is a worker's registered backend: it waits out the trial's
// injected duration, then runs the simulator.
type delayedEval struct {
	sim    stormtune.Backend
	seed   int64
	worker int
	tr     *tracer
	clk    clock
}

// Run implements stormtune.Backend.
func (d *delayedEval) Run(ctx context.Context, t stormtune.Trial) (stormtune.Result, error) {
	start := d.clk.now()
	timer := time.NewTimer(trialDelay(d.seed, t.Config.Fingerprint(), t.RunIndex))
	select {
	case <-ctx.Done():
		timer.Stop()
		return stormtune.Result{}, ctx.Err()
	case <-timer.C:
	}
	mid := d.clk.now()
	res, err := d.sim.Run(ctx, t)
	if d.tr != nil {
		d.tr.addServer(serverSpan{worker: d.worker, start: start, delayEnd: mid, end: d.clk.now()})
	}
	return res, err
}

// workerPair is fleet-pool's serving plane: two bearer-authed workers
// with admission capacity 1, each serving every topology, behind one
// BackendPool. Each client holds at most one connection.
type workerPair struct {
	servers    []*httptest.Server
	transports []*http.Transport
	pool       *stormtune.BackendPool
}

func (w *workerPair) close() {
	for _, s := range w.servers {
		s.Close()
	}
	for _, t := range w.transports {
		t.CloseIdleConnections()
	}
}

func (r *run) startWorkers(ctx context.Context, tops map[string]*topology) (*workerPair, error) {
	wp := &workerPair{}
	var members []stormtune.Backend
	for w := 0; w < 2; w++ {
		srv := stormtune.NewBackendServer(stormtune.BackendServerOptions{
			Auth:       stormtune.RemoteCredentials{Token: benchToken},
			Admission:  stormtune.RemoteAdmission{MaxConcurrent: workerCapacity},
			FailEveryN: r.p.sz.poolFail,
		})
		for _, name := range sortedKeys(tops) {
			tp := tops[name]
			ev := &delayedEval{sim: stormtune.AsBackend(tp.sim), seed: r.p.seed, worker: w, tr: r.tr, clk: r.clk}
			if err := stormtune.RegisterTopology(srv, tp.t, ev, stormtune.SinkTuples); err != nil {
				wp.close()
				return nil, err
			}
		}
		hs := httptest.NewServer(srv.Handler())
		tpt := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		wp.servers = append(wp.servers, hs)
		wp.transports = append(wp.transports, tpt)
		client := stormtune.NewRemoteBackend(hs.URL, stormtune.RemoteBackendOptions{
			HTTPClient: &http.Client{Transport: tpt},
			Auth:       stormtune.RemoteCredentials{Token: benchToken},
		})
		for _, name := range sortedKeys(tops) {
			if _, err := stormtune.CheckRemoteBackend(ctx, client, tops[name].t, stormtune.SinkTuples); err != nil {
				wp.close()
				return nil, err
			}
		}
		if r.tr != nil {
			members = append(members, &tracedMember{RemoteBackend: client, worker: w, tr: r.tr, clk: r.clk})
		} else {
			members = append(members, client)
		}
	}
	pool, err := stormtune.NewBackendPool(members...)
	if err != nil {
		wp.close()
		return nil, err
	}
	wp.pool = pool
	return wp, nil
}

func runFleetPool(ctx context.Context, r *run) error {
	sz := r.p.sz
	r.slots = 2
	var tops map[string]*topology
	var wp *workerPair
	err := r.runSetup(sz.setupReps, func() error {
		var err error
		if tops, err = loadTopologies("small", "medium"); err != nil {
			return err
		}
		if wp, err = r.startWorkers(ctx, tops); err != nil {
			return err
		}
		return r.warmUp(ctx, tops["small"])
	}, func() { wp.close() })
	if err != nil {
		return err
	}
	defer wp.close()
	err = r.measure(sz.poolMin, func(u int, origin int64) error {
		var members []stormtune.FleetMember
		for j := 0; j < sz.poolSessions; j++ {
			i := u*sz.poolSessions + j
			tp := tops["small"]
			if j%sz.poolMedium == sz.poolMedium-1 {
				tp = tops["medium"]
			}
			s, err := r.newSession(fmt.Sprintf("pool-%d-%s", i, tp.name), tp, sz.poolSteps, derive(r.p.seed, "pool", i), wp.pool,
				func(o *stormtune.TunerOptions) {
					o.Recorder = stormtune.NewRecorder()
					o.Retry = stormtune.RetryPolicy{MaxAttempts: poolAttempts}
				})
			if err != nil {
				return err
			}
			s.origin = origin
			s.sample = func(id int) bool { return id%sampleEvery == 0 }
			r.sessions = append(r.sessions, s)
			members = append(members, stormtune.FleetMember{Name: s.name, Tuner: s.tn, MaxInFlight: 1})
		}
		return runFleet(ctx, stormtune.FleetOptions{Slots: r.slots}, members)
	})
	if err != nil {
		return err
	}
	r.checkAccounting()
	if r.checkSamples() == 0 {
		r.failf("fleet-pool: no remote result was re-checked in process")
	}
	var shed, all int64
	for _, ws := range wp.pool.Stats() {
		shed += ws.Shed
		all += ws.Completed + ws.Errors + ws.Shed
	}
	r.layer["pool.shed_ratio"] = metric{Value: float64(shed) / float64(all), Unit: "ratio", N: int(all)}
	return nil
}

// runFleet drives one fleet to completion.
func runFleet(ctx context.Context, opts stormtune.FleetOptions, members []stormtune.FleetMember) error {
	fleet, err := stormtune.NewFleet(opts, members...)
	if err != nil {
		return err
	}
	_, err = fleet.Run(ctx)
	return err
}

// durableEnv is fleet-durable's on-disk state: a directory holding the
// donor-filled archive and one fleet log per unit.
type durableEnv struct {
	dir  string
	arch *stormtune.DiskArchive
}

func (d *durableEnv) close() {
	if d == nil {
		return
	}
	if d.arch != nil {
		_ = d.arch.Close() // the directory is removed next
	}
	_ = os.RemoveAll(d.dir) // scratch space; a leftover is harmless
}

// newDurableEnv creates the archive and fills it with donor sessions
// generated from the seed.
func (r *run) newDurableEnv(ctx context.Context, tp *topology) (*durableEnv, error) {
	if err := os.MkdirAll(r.p.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(r.p.workdir, "fleet-durable-")
	if err != nil {
		return nil, err
	}
	env := &durableEnv{dir: dir}
	if env.arch, err = stormtune.OpenArchive(filepath.Join(dir, "archive")); err != nil {
		env.close()
		return nil, err
	}
	for d := 0; d < r.p.sz.donors; d++ {
		s, err := r.newSession(fmt.Sprintf("donor-%d", d), tp, r.p.sz.donorSteps, derive(r.p.seed, "donor", d),
			stormtune.AsBackend(tp.sim), func(o *stormtune.TunerOptions) { o.Archive = env.arch })
		if err != nil {
			env.close()
			return nil, err
		}
		if _, err := s.tn.Run(ctx); err != nil {
			env.close()
			return nil, err
		}
	}
	return env, nil
}

func runFleetDurable(ctx context.Context, r *run) error {
	sz := r.p.sz
	r.slots = 2
	// Its fleet log fsyncs at every completion, so the disk's speed is
	// part of its durations.
	if err := r.host.startDisk(r.p.workdir); err != nil {
		return err
	}
	defer r.host.stopDisk() // checked below; a second stop is harmless
	var tops map[string]*topology
	var env *durableEnv
	err := r.runSetup(sz.setupReps, func() error {
		var err error
		if tops, err = loadTopologies("small"); err != nil {
			return err
		}
		if env, err = r.newDurableEnv(ctx, tops["small"]); err != nil {
			return err
		}
		return r.warmUp(ctx, tops["small"])
	}, func() { env.close() })
	if err != nil {
		return err
	}
	defer env.close()
	var arch stormtune.Archive = env.arch
	if r.tr != nil {
		arch = &tracedArchive{Archive: env.arch, tr: r.tr, clk: r.clk}
	}
	type unitLog struct {
		path string
		ss   []*session
	}
	var logs []unitLog
	err = r.measure(sz.durMin, func(u int, origin int64) error {
		path := filepath.Join(env.dir, fmt.Sprintf("fleet-%d.jsonl", u))
		flog, err := stormtune.CreateFleetLog(path)
		if err != nil {
			return err
		}
		var members []stormtune.FleetMember
		var ss []*session
		for j := 0; j < sz.durSessions; j++ {
			i := u*sz.durSessions + j
			s, err := r.newSession(fmt.Sprintf("durable-%d", i), tops["small"], sz.durSteps, derive(r.p.seed, "durable", i),
				stormtune.AsBackend(tops["small"].sim), func(o *stormtune.TunerOptions) {
					o.Recorder = stormtune.NewRecorder()
					o.Archive = arch
					o.WarmStart = stormtune.WarmStartOptions{Enabled: true, Prior: true}
				})
			if err != nil {
				flog.Close()
				return err
			}
			s.origin = origin
			r.sessions = append(r.sessions, s)
			ss = append(ss, s)
			members = append(members, stormtune.FleetMember{Name: s.name, Tuner: s.tn, MaxInFlight: 1})
		}
		if err := runFleet(ctx, stormtune.FleetOptions{Slots: r.slots, Log: flog}, members); err != nil {
			flog.Close()
			return err
		}
		if err := stormtune.SealFleetArchives(members...); err != nil {
			flog.Close()
			return err
		}
		if err := flog.Close(); err != nil {
			return err
		}
		if err := flog.Err(); err != nil {
			return fmt.Errorf("fleet log: %w", err)
		}
		logs = append(logs, unitLog{path, ss})
		return nil
	})
	if err != nil {
		return err
	}
	if err := r.host.stopDisk(); err != nil {
		return fmt.Errorf("disk probe: %w", err)
	}
	r.checkAccounting()
	var recoverMS []float64
	var bytes, records, snapshots, snapBytes int64
	trials := 0
	for _, l := range logs {
		ms, err := r.checkFleetLog(l.path, l.ss)
		if err != nil {
			return err
		}
		recoverMS = append(recoverMS, ms)
		st, err := scanFleetLog(l.path)
		if err != nil {
			return err
		}
		bytes += st.bytes
		records += st.records
		snapshots += st.snapshots
		snapBytes += st.snapshotBytes
		for _, s := range l.ss {
			trials += len(s.res.Records)
			if got := env.arch.LastStep(s.archiveKey); got != s.budget {
				r.failf("%s: archive LastStep %d, want %d", s.name, got, s.budget)
			}
		}
	}
	r.layer["fleetlog.recover_ms"] = metric{Value: mean(recoverMS), Unit: "ms", N: len(recoverMS)}
	r.layer["fleetlog.records"] = metric{Value: float64(records), Unit: "count"}
	r.layer["fleetlog.bytes_per_trial"] = metric{Value: float64(bytes) / float64(trials), Unit: "bytes", N: trials}
	if snapshots > 0 {
		r.layer["fleetlog.snapshot_kb.mean"] = metric{Value: float64(snapBytes) / 1024 / float64(snapshots), Unit: "KB", N: int(snapshots)}
	}
	return nil
}

// checkFleetLog recovers a finished fleet log the way a resume would
// and requires every member's last snapshot to match its live result.
// It returns the recovery time in milliseconds at reference speed.
func (r *run) checkFleetLog(path string, ss []*session) (float64, error) {
	t0 := r.clk.now()
	flog, err := stormtune.OpenFleetLog(path)
	if err != nil {
		return 0, err
	}
	states := make([]*stormtune.TunerState, len(ss))
	for i, s := range ss {
		if states[i], err = flog.MemberState(s.name); err != nil {
			r.failf("%s: %v", s.name, err)
		}
	}
	elapsed := r.scale.ms(r.clk.now() - t0)
	if err := flog.Close(); err != nil {
		return 0, err
	}
	for i, s := range ss {
		st := states[i]
		if st == nil {
			r.failf("%s: fleet log holds no snapshot", s.name)
			continue
		}
		if len(st.Session.Records) != len(s.res.Records) {
			r.failf("%s: snapshot has %d records, live result %d", s.name, len(st.Session.Records), len(s.res.Records))
			continue
		}
		best := 0.0
		for _, rec := range st.Session.Records {
			if !rec.Result.Failed && rec.Result.Throughput > best {
				best = rec.Result.Throughput
			}
		}
		if live, ok := s.res.Best(); !ok || live.Result.Throughput != best {
			r.failf("%s: snapshot best %v differs from live best %v", s.name, best, live.Result.Throughput)
		}
	}
	return elapsed, nil
}

type logStats struct {
	bytes, records, snapshots, snapshotBytes int64
}

// scanFleetLog measures a fleet log file: its size, its record count
// and the size of its snapshot records.
func scanFleetLog(path string) (logStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return logStats{}, err
	}
	defer f.Close()
	var st logStats
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		st.bytes += int64(len(line)) + 1
		st.records++
		var rec struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return st, fmt.Errorf("%s: record %d: %w", path, st.records, err)
		}
		if rec.Kind == "snapshot" {
			st.snapshots++
			st.snapshotBytes += int64(len(line))
		}
	}
	return st, sc.Err()
}

// tracedArchive times appends and counts reads on the way to the disk
// archive.
type tracedArchive struct {
	stormtune.Archive
	tr  *tracer
	clk clock
}

// Append implements stormtune.Archive.
func (a *tracedArchive) Append(key string, trials ...stormtune.ArchiveTrial) error {
	t0 := a.clk.now()
	err := a.Archive.Append(key, trials...)
	d := a.clk.now() - t0
	a.tr.mu.Lock()
	a.tr.appends = append(a.tr.appends, d)
	a.tr.mu.Unlock()
	return err
}

// Get implements stormtune.Archive.
func (a *tracedArchive) Get(key string) (stormtune.ArchiveRecord, bool) {
	a.countRead()
	return a.Archive.Get(key)
}

// Keys implements stormtune.Archive.
func (a *tracedArchive) Keys() []string {
	a.countRead()
	return a.Archive.Keys()
}

func (a *tracedArchive) countRead() {
	a.tr.mu.Lock()
	a.tr.archiveReads++
	a.tr.mu.Unlock()
}
