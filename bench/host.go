package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark shares its host with other tenants, and their load makes
// the same code run up to 1.7 times slower, and fsync several times
// slower, for seconds to minutes at a time. So a run probes the host as
// it goes. Every probeEvery it times a fixed piece of computation of its
// own (no stormtune code); in a workload that writes durable state, every
// diskEvery it also times an append and fsync the size of a session
// snapshot. Each duration is then stated at the speed the host has when
// those take probeRef and diskRef. The run's clock stops while a probe
// runs, so no measured interval contains one.
const (
	probeEvery = 25 * time.Millisecond
	probeRef   = 260 * time.Microsecond
	diskEvery  = 100 * time.Millisecond
	diskRef    = 600 * time.Microsecond
	probeBlock = 8 // probes per block; a block's median resists one-off stalls
)

// clock reads nanoseconds since the start of a run on the monotonic
// clock, less the time spent probing.
type clock struct {
	epoch  time.Time
	paused *atomic.Int64
}

func newClock() clock { return clock{epoch: time.Now(), paused: new(atomic.Int64)} }

func (c clock) now() int64 { return int64(time.Since(c.epoch)) - c.paused.Load() }

// hostProbe runs probes and keeps their durations.
type hostProbe struct {
	clk clock

	mu        sync.Mutex
	kernel    probeKernel
	cpu, disk series
	file      *os.File // disk probes append to it; nil without disk probes
	err       error    // the first failed disk probe
}

// series holds the samples of one kind of probe.
type series struct {
	last    int64 // clock reading at the last probe
	started bool
	samples []probeSample
}

type probeSample struct {
	at, dur int64 // clock reading when it ran; its duration in ns
}

func (s *series) due(now int64, every time.Duration) bool {
	return !s.started || now-s.last >= int64(every)
}

func (s *series) add(now, dur int64) {
	s.started, s.last = true, now
	s.samples = append(s.samples, probeSample{at: now, dur: dur})
}

// between returns the probes run in the clock interval [from, to] and
// their total duration.
func (s *series) between(from, to int64) (durs []float64, total int64) {
	for _, p := range s.samples {
		if p.at >= from && p.at <= to {
			durs = append(durs, float64(p.dur))
			total += p.dur
		}
	}
	return durs, total
}

// startDisk turns on disk probes, which append to a new file in dir.
func (h *hostProbe) startDisk(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, "disk-probe-")
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.file = f
	h.mu.Unlock()
	return nil
}

// stopDisk turns disk probes off, removes their file and returns the
// first error a disk probe met.
func (h *hostProbe) stopDisk() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.file == nil {
		return h.err
	}
	err := h.file.Close()
	if rmErr := os.Remove(h.file.Name()); err == nil {
		err = rmErr
	}
	h.file = nil
	if h.err != nil {
		return h.err
	}
	return err
}

// maybeProbe runs each kind of probe that is due.
func (h *hostProbe) maybeProbe() {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.clk.now()
	if h.cpu.due(now, probeEvery) {
		h.probeCPU(now)
	}
	if h.file != nil && h.disk.due(now, diskEvery) {
		h.probeDisk(now)
	}
}

// probe runs n probes of each kind now.
func (h *hostProbe) probe(n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := 0; i < n; i++ {
		now := h.clk.now()
		h.probeCPU(now)
		if h.file != nil {
			h.probeDisk(now)
		}
	}
}

func (h *hostProbe) probeCPU(now int64) {
	h.cpu.add(now, h.timed(h.kernel.work))
}

// diskBlock is about the size of the session snapshot the fleet log
// appends and fsyncs at every completion.
var diskBlock [24 << 10]byte

func (h *hostProbe) probeDisk(now int64) {
	var err error
	d := h.timed(func() {
		if _, err = h.file.Write(diskBlock[:]); err == nil {
			err = h.file.Sync()
		}
	})
	if err != nil && h.err == nil {
		h.err = err
	}
	h.disk.add(now, d)
}

// timed runs f with the run's clock stopped and returns its duration.
func (h *hostProbe) timed(f func()) int64 {
	t0 := time.Now()
	f()
	d := int64(time.Since(t0))
	h.clk.paused.Add(d)
	return d
}

// window returns the host's scale over the clock interval [from, to],
// in which the process spent cpu ns computing outside the probes, and
// that CPU time.
func (h *hostProbe) window(from, to, cpu int64) (hostScale, int64, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cpuDurs, probed := h.cpu.between(from, to)
	diskDurs, _ := h.disk.between(from, to)
	cpu -= probed
	// The disk's slowdown is a plain mean: the workload waits out every
	// fsync, and under load it is the slow ones that cost.
	disk := 1.0
	if len(diskDurs) > 0 {
		disk = mean(diskDurs) / float64(diskRef)
	}
	return newHostScale(slowdown(cpuDurs), disk, cpu, to-from), cpu, len(cpuDurs)
}

// slowdown is how many times longer the CPU probes took than probeRef:
// the mean over consecutive blocks of probeBlock probes of each block's
// median. 1 when there are no probes.
func slowdown(durs []float64) float64 {
	if len(durs) == 0 {
		return 1
	}
	var sum float64
	blocks := 0
	for i := 0; i < len(durs); i += probeBlock {
		b := append([]float64(nil), durs[i:min(i+probeBlock, len(durs))]...)
		sort.Float64s(b)
		sum += b[len(b)/2]
		blocks++
	}
	return sum / float64(blocks) / float64(probeRef)
}

// hostScale converts durations measured on a host that computes slow
// times and fsyncs disk times slower than the reference to the
// reference speed. The busy share of the time, spent computing, slows
// with the CPU; the rest slows with the disk where the workload writes
// durable state (disk is 1 elsewhere, and the rest is sleeps), so a
// duration d becomes d·(busy/slow + (1 − busy)/disk).
type hostScale struct {
	slow, disk, busy float64
}

func newHostScale(slow, disk float64, cpu, wall int64) hostScale {
	busy := 1.0
	if wall > 0 {
		busy = math.Max(0, math.Min(1, float64(cpu)/float64(wall)))
	}
	return hostScale{slow: slow, disk: disk, busy: busy}
}

func (h hostScale) factor() float64 { return h.busy/h.slow + (1-h.busy)/h.disk }

// ms converts a measured duration in ns to reference-speed milliseconds.
func (h hostScale) ms(ns int64) float64 { return ms(ns) * h.factor() }

// The probe mixes the two kinds of work a tuner does: dense floating
// point (a squared-exponential kernel matrix, its Cholesky factor and a
// solve, as a GP fit does) and allocation-heavy pointer and map work (as
// bookkeeping does). On the shared host each kind alone tracked the
// tuner's own slowdown less well than the two together.
const (
	probeDim   = 8
	probeN     = 48
	probeNodes = 500
	probeReps  = 2
)

// probePts are the probe's inputs; they are only read.
var probePts [probeN][probeDim]float64

// probeAllocBytes is what one probe allocates, measured once at start;
// allocation metrics leave it out for every probe a window ran.
var probeAllocBytes uint64

func init() {
	for i := range probePts {
		for k := range probePts[i] {
			probePts[i][k] = 2 * math.Sin(float64(i*probeDim+k))
		}
	}
	var k probeKernel
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	k.work()
	runtime.ReadMemStats(&b)
	probeAllocBytes = b.TotalAlloc - a.TotalAlloc
}

// probeKernel holds the probe's working memory.
type probeKernel struct {
	k    [probeN * probeN]float64
	vec  [probeN]float64
	sink float64
}

type probeNode struct {
	next *probeNode
	v    [6]float64
}

func (p *probeKernel) work() {
	for r := 0; r < probeReps; r++ {
		p.sink += p.dense() + probeAlloc()
	}
}

func (p *probeKernel) dense() float64 {
	const n = probeN
	k := &p.k
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			d := 0.0
			for c := 0; c < probeDim; c++ {
				x := probePts[i][c] - probePts[j][c]
				d += x * x
			}
			v := math.Exp(-0.5 * d)
			if i == j {
				v += 1e-3
			}
			k[i*n+j] = v
		}
	}
	for j := 0; j < n; j++ {
		d := k[j*n+j]
		for c := 0; c < j; c++ {
			d -= k[j*n+c] * k[j*n+c]
		}
		d = math.Sqrt(d)
		k[j*n+j] = d
		for i := j + 1; i < n; i++ {
			v := k[i*n+j]
			for c := 0; c < j; c++ {
				v -= k[i*n+c] * k[j*n+c]
			}
			k[i*n+j] = v / d
		}
	}
	for i := 0; i < n; i++ {
		v := 1.0
		for c := 0; c < i; c++ {
			v -= k[i*n+c] * p.vec[c]
		}
		p.vec[i] = v / k[i*n+i]
	}
	return p.vec[n-1]
}

func probeAlloc() float64 {
	m := map[int]*probeNode{}
	var head *probeNode
	for i := 0; i < probeNodes; i++ {
		nd := &probeNode{next: head}
		nd.v[0] = float64(i)
		head = nd
		m[i*7919%4093] = nd
	}
	s := 0.0
	for k, v := range m {
		s += v.v[0] + float64(k)
	}
	return s
}
