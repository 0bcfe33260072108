package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"discover/internal/core"
	"discover/internal/netsim"
	"discover/internal/orb"
	"discover/internal/server"
	"discover/internal/telemetry"
)

// recorder collects the benchmark-side timings of one window. Latencies
// are kept per named path ("steer_remote", "deliver", ...); each workload
// names which path is its primary operation and which its side path.
//
// The window is also cut into blocks (fixed intervals, or one per
// durable cycle). Each block keeps its own samples, op count and process
// costs, and the end-to-end metrics are medians over blocks, so one
// stalled second moves a run's figure by at most one block's weight.
type recorder struct {
	tr *tracer // nil in untraced windows

	mu     sync.Mutex
	named  map[string][]time.Duration
	counts map[string]float64 // benchmark-side tallies (phases, commands, ...)
	ops    int                // completed client-visible operations

	// excluded is process work the workload asked not to charge to its
	// ops (per-cycle deployment in durable).
	excluded procSnap

	blocks  []*block
	cur     *block
	curProc procSnap // process reading when cur began
	curAt   time.Time
}

// block is one slice of a window.
type block struct {
	named    map[string][]time.Duration
	ops      int
	busy     time.Duration // ops-driving time; the block's length when zero
	wall     time.Duration
	proc     procSnap // process costs charged to the block's ops
	excluded procSnap
	heapPeak uint64
}

func newRecorder(tr *tracer) *recorder {
	r := &recorder{tr: tr, named: map[string][]time.Duration{}, counts: map[string]float64{}}
	r.cur, r.curProc, r.curAt = &block{named: map[string][]time.Duration{}}, takeProc(), time.Now()
	return r
}

// cut closes the current block and opens the next.
func (r *recorder) cut() {
	p := takeProc()
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.cur
	b.wall = now.Sub(r.curAt)
	b.proc = p.sub(r.curProc).sub(b.excluded)
	if b.ops > 0 {
		r.blocks = append(r.blocks, b)
	}
	r.cur, r.curProc, r.curAt = &block{named: map[string][]time.Duration{}}, p, now
}

func (r *recorder) observe(name string, d time.Duration) {
	r.mu.Lock()
	r.named[name] = append(r.named[name], d)
	r.cur.named[name] = append(r.cur.named[name], d)
	r.mu.Unlock()
}

func (r *recorder) tally(name string, v float64) {
	r.mu.Lock()
	r.counts[name] += v
	r.mu.Unlock()
}

func (r *recorder) addOps(n int) {
	r.mu.Lock()
	r.ops += n
	r.cur.ops += n
	r.mu.Unlock()
}

func (r *recorder) addBusy(d time.Duration) {
	r.mu.Lock()
	r.cur.busy += d
	r.mu.Unlock()
}

func (r *recorder) heapSample(v uint64) {
	r.mu.Lock()
	if v > r.cur.heapPeak {
		r.cur.heapPeak = v
	}
	r.mu.Unlock()
}

// exclude runs f and keeps its process cost out of the per-op figures.
func (r *recorder) exclude(f func() error) error {
	p0 := takeProc()
	err := f()
	d := takeProc().sub(p0)
	r.mu.Lock()
	r.excluded = r.excluded.add(d)
	r.cur.excluded = r.cur.excluded.add(d)
	r.mu.Unlock()
	return err
}

func (r *recorder) quantile(name string, q float64) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return quantileD(r.named[name], q)
}

// blockMedian is the median over blocks of f(block), skipping blocks for
// which f reports no value.
func (r *recorder) blockMedian(f func(b *block) (float64, bool)) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var xs []float64
	for _, b := range r.blocks {
		if v, ok := f(b); ok {
			xs = append(xs, v)
		}
	}
	return medianF(xs)
}

// blockQuantile is the median over blocks of each block's q-quantile of
// path name.
func (r *recorder) blockQuantile(name string, q float64) time.Duration {
	return time.Duration(r.blockMedian(func(b *block) (float64, bool) {
		ds := b.named[name]
		return float64(quantileD(ds, q)), len(ds) > 0
	}))
}

// quantileD is the nearest-rank q-quantile of ds (0 when empty).
func quantileD(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ---------------------------------------------------------------------------
// Process figures: CPU, allocations, GC, heap.
// ---------------------------------------------------------------------------

// procSnap is a point-in-time reading of the process's cumulative costs.
type procSnap struct {
	cpu        time.Duration // user + system
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint64
	pauses     []uint64 // GC pause histogram counts
}

var pauseBuckets []float64 // upper bounds matching procSnap.pauses

func takeProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	p := procSnap{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
	}
	h := s[3].Value.Float64Histogram()
	p.pauses = append([]uint64(nil), h.Counts...)
	if pauseBuckets == nil {
		pauseBuckets = append([]float64(nil), h.Buckets[1:]...)
	}
	return p
}

func (p procSnap) sub(q procSnap) procSnap {
	out := procSnap{
		cpu: p.cpu - q.cpu, mallocs: p.mallocs - q.mallocs,
		allocBytes: p.allocBytes - q.allocBytes, gcCycles: p.gcCycles - q.gcCycles,
	}
	out.pauses = make([]uint64, len(p.pauses))
	for i := range p.pauses {
		if i < len(q.pauses) {
			out.pauses[i] = p.pauses[i] - q.pauses[i]
		}
	}
	return out
}

func (p procSnap) add(q procSnap) procSnap {
	out := procSnap{
		cpu: p.cpu + q.cpu, mallocs: p.mallocs + q.mallocs,
		allocBytes: p.allocBytes + q.allocBytes, gcCycles: p.gcCycles + q.gcCycles,
	}
	out.pauses = make([]uint64, max(len(p.pauses), len(q.pauses)))
	for i := range out.pauses {
		if i < len(p.pauses) {
			out.pauses[i] += p.pauses[i]
		}
		if i < len(q.pauses) {
			out.pauses[i] += q.pauses[i]
		}
	}
	return out
}

// pauseQuantile is the upper bound of the bucket holding the q-quantile
// GC pause.
func (p procSnap) pauseQuantile(q float64) time.Duration {
	var total uint64
	for _, c := range p.pauses {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	var seen uint64
	for i, c := range p.pauses {
		seen += c
		if seen > rank && i < len(pauseBuckets) {
			return time.Duration(pauseBuckets[i] * float64(time.Second))
		}
	}
	return 0
}

// sampler feeds a recorder the heap in use (heap object bytes plus
// unused heap span bytes, i.e. HeapInuse) every few milliseconds and, for
// workloads without cycles of their own, cuts a block every blockEvery.
type sampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startSampler(rec *recorder, blockEvery time.Duration, until time.Time) *sampler {
	h := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	read := func() {
		s := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		metrics.Read(s)
		v := s[0].Value.Uint64() + s[1].Value.Uint64()
		h.peak = max(h.peak, v)
		rec.heapSample(v)
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		last := time.Now()
		for {
			read()
			select {
			case <-h.stop:
				return
			case now := <-t.C:
				if blockEvery > 0 && now.Sub(last) >= blockEvery && now.Before(until) {
					rec.cut()
					last = now
				}
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the window's peak in bytes.
func (h *sampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// ---------------------------------------------------------------------------
// Program counters, read through their public accessors.
// ---------------------------------------------------------------------------

// system names the program objects a workload deployed, so the counters
// can be read per object (ORB, substrate, server) and the trace route
// fetched.
type system struct {
	servers []*server.Server
	orbs    []*orb.ORB
	subs    []*core.Substrate
	net     *netsim.Network
	portal  string // base URL serving GET /api/v1/trace

	// retired accumulates the per-object counters of domains that were
	// torn down mid-window (durable's crash cycles).
	mu      sync.Mutex
	retired objCounters
}

// objCounters are the per-object counters summed over a system.
type objCounters struct {
	orb    orb.Stats
	relay  server.RelayStats
	relayQ int
	shed   uint64
	pushes uint64 // delivery-queue pushes (sum of queue sequence numbers)
}

func (c objCounters) plus(d objCounters) objCounters {
	c.orb.Invocations += d.orb.Invocations
	c.orb.Oneways += d.orb.Oneways
	c.orb.Writes += d.orb.Writes
	c.orb.BytesOut += d.orb.BytesOut
	c.orb.Replies += d.orb.Replies
	c.orb.InternDefs += d.orb.InternDefs
	c.orb.InternHits += d.orb.InternHits
	c.relay.Delivered += d.relay.Delivered
	c.relay.Dropped += d.relay.Dropped
	c.relay.Batches += d.relay.Batches
	c.relay.Invocations += d.relay.Invocations
	c.relay.Failures += d.relay.Failures
	c.relayQ += d.relayQ
	c.shed += d.shed
	c.pushes += d.pushes
	return c
}

func readServer(s *server.Server) objCounters {
	var c objCounters
	e := s.EdgeStats()
	c.shed = e.ShedOverload + e.ShedRateLimited + e.ShedDraining + e.ShedStreamCap
	for _, sess := range s.Sessions().List() {
		c.pushes += sess.Buffer.LastSeq()
	}
	return c
}

func (sy *system) objects() objCounters {
	sy.mu.Lock()
	c, servers := sy.retired, sy.servers
	sy.mu.Unlock()
	for _, s := range servers {
		c = c.plus(readServer(s))
	}
	for _, o := range sy.orbs {
		c = c.plus(objCounters{orb: o.Stats()})
	}
	for _, sub := range sy.subs {
		for _, r := range sub.RelayStats() {
			c = c.plus(objCounters{relay: r, relayQ: r.Queued})
		}
	}
	return c
}

// retire folds a server's final counters into the system before it is
// crash-stopped, so window deltas survive the domain's replacement.
func (sy *system) retire(s *server.Server) {
	c := readServer(s)
	sy.mu.Lock()
	sy.retired = sy.retired.plus(c)
	sy.mu.Unlock()
}

// counterSnap is every counter a window reads, taken once before and once
// after it.
type counterSnap struct {
	obj   objCounters
	wan   netsim.DirStats
	reg   map[string]uint64           // registry counters, summed over labels
	hists map[string]map[int64]uint64 // registry histograms: upper bound -> count
}

func snapCounters(sy *system) counterSnap {
	c := counterSnap{obj: sy.objects(), reg: map[string]uint64{}, hists: map[string]map[int64]uint64{}}
	if sy.net != nil {
		c.wan = sy.net.TotalWAN()
	}
	reg := telemetry.DefaultRegistry()
	for _, cs := range reg.CounterSnapshots() {
		c.reg[cs.Name] += cs.Value
	}
	for _, hs := range reg.Snapshots() {
		m := c.hists[hs.Name]
		if m == nil {
			m = map[int64]uint64{}
			c.hists[hs.Name] = m
		}
		for _, b := range hs.Buckets {
			m[b.UpperNanos] += b.Count
		}
	}
	return c
}

// histQuantile estimates the q-quantile of the observations a registry
// histogram received between two snapshots (bucket upper bound).
func histQuantile(before, after counterSnap, name string, q float64) time.Duration {
	a, b := after.hists[name], before.hists[name]
	var uppers []int64
	var total uint64
	delta := map[int64]uint64{}
	for up, n := range a {
		if d := n - b[up]; d > 0 {
			delta[up] = d
			uppers = append(uppers, up)
			total += d
		}
	}
	if total == 0 {
		return 0
	}
	sort.Slice(uppers, func(i, j int) bool { return uppers[i] < uppers[j] })
	rank := uint64(q * float64(total))
	var seen uint64
	for _, up := range uppers {
		seen += delta[up]
		if seen > rank {
			return time.Duration(up)
		}
	}
	return time.Duration(uppers[len(uppers)-1])
}

// quiet waits until the system holds still after the load stops: the
// per-object counters unchanged across one settle interval, or — where an
// app keeps emitting updates, so they never stop moving — no relay message
// queued at two readings in a row. ORB byte counters land after the reply
// is visible to the caller, so a reading taken the instant the load stops
// can miss bytes already sent.
func quiet(sy *system) {
	const settle = 20 * time.Millisecond
	deadline := time.Now().Add(2 * time.Second)
	prev := sy.objects()
	for time.Now().Before(deadline) {
		time.Sleep(settle)
		cur := sy.objects()
		if cur == prev || (cur.relayQ == 0 && prev.relayQ == 0) {
			return
		}
		prev = cur
	}
}

// ---------------------------------------------------------------------------
// One measured window.
// ---------------------------------------------------------------------------

// blockLength is the block a fixed-interval window is cut into: long
// enough that every block holds at least a thousand primary operations at
// the workloads' rates, so its p99 has ten samples beyond it.
const blockLength = 5 * time.Second

// cycler is a workload that cuts its own blocks, one per cycle.
type cycler interface{ cutsBlocks() }

type windowResult struct {
	rec      *recorder
	ops      int
	proc     procSnap
	heapPeak uint64
	before   counterSnap
	after    counterSnap
}

func measureWindow(w workload, d time.Duration, tr *tracer) (*windowResult, error) {
	rec := newRecorder(tr)
	if tr != nil {
		telemetry.Default().Reset()
		telemetry.Default().SetSampleEvery(1)
		defer telemetry.Default().SetSampleEvery(0)
	}
	runtime.GC()
	sy := w.sys()
	before := snapCounters(sy)
	p0 := takeProc()
	var blockEvery time.Duration
	if _, ok := w.(cycler); !ok {
		blockEvery = blockLength
	}
	t0 := time.Now()
	heap := startSampler(rec, blockEvery, t0.Add(d-blockEvery/2))
	err := w.window(d, rec)
	proc := takeProc().sub(p0)
	peak := heap.finish()
	if blockEvery > 0 {
		rec.cut() // the tail, with deliveries that landed after the last send
	}
	quiet(sy)
	after := snapCounters(sy)
	if err != nil {
		return nil, err
	}
	proc.cpu -= rec.excluded.cpu
	proc.mallocs -= rec.excluded.mallocs
	proc.allocBytes -= rec.excluded.allocBytes
	return &windowResult{rec: rec, ops: rec.ops, proc: proc, heapPeak: peak,
		before: before, after: after}, nil
}

// ---------------------------------------------------------------------------
// Environment record.
// ---------------------------------------------------------------------------

func environment() map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     "unknown",
		"source":     sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["commit"] = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env["commit"] += "-dirty"
				}
			}
		}
	}
	return env
}

// sourceDigest hashes the Go sources and module files under root, so a
// result can name the code it measured even where no commit is recorded.
func sourceDigest(root string) string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are skipped, not fatal
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
