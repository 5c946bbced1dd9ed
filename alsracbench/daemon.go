package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/aig"
	"repro/internal/aiger"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/service"
)

const daemonWorkload = "daemon-small-jobs"

// The daemon workload's job mix: per batch, rcaSpecs rca32 specs submitted
// rcaRepeats times each and aluSpecs alu4 specs submitted once each, driven
// by one closed-loop client. Every fourth job is an alu4 job, so the long
// jobs are spread evenly and the batch never ends on one.
//
// One client, not two: with two clients a job's latency depended on what
// the other client's job was at the time. The middle half of the rca32 jobs
// spanned 17–29 ms at one seed with two clients, and 13–15 ms with one.
// Over five seeds (IQR ÷ median) job_ms.p50 spread 18 % with two
// free-running clients against 6 % for the step time, and 37 % with two
// clients in lockstep rounds against 23 %. With one client it spread 8 %,
// in line with the step time's 9 %.
const (
	rcaSpecs      = 6
	rcaRepeats    = 8
	aluSpecs      = 16
	daemonWorkers = 2 // service.Config.Workers
)

// jobSpec is one distinct submission of the mix.
type jobSpec struct {
	circuit  string
	body     []byte
	query    string
	refFP    uint64  // fingerprint of the in-process core.Run result
	andsR    float64 // result ANDs / input ANDs
	areaR    float64 // mapped area ratio
	resultOK bool    // reference computed
}

// daemonMix builds the seeded job list: the distinct specs and the order
// in which the client submits them (indices into specs).
func daemonMix(seed int64) ([]*jobSpec, []int, error) {
	bodies := map[string][]byte{}
	for _, name := range []string{"rca32", "alu4"} {
		var buf bytes.Buffer
		if err := aiger.Write(&buf, bench.Get(name), "aag"); err != nil {
			return nil, nil, err
		}
		bodies[name] = buf.Bytes()
	}
	var specs []*jobSpec
	// rca32 at ER 0.05 is a one-step job; alu4 at ER 0.1 on 1024
	// evaluation patterns runs about 15 steps, past the service's periodic
	// checkpoint.
	add := func(circuit string, sub int64) int {
		q := url.Values{}
		q.Set("metric", "er")
		q.Set("workers", "1")
		q.Set("seed", strconv.FormatInt(sub, 10))
		if circuit == "alu4" {
			q.Set("threshold", "0.1")
			q.Set("eval", "1024")
		} else {
			q.Set("threshold", "0.05")
		}
		specs = append(specs, &jobSpec{circuit: circuit, body: bodies[circuit], query: q.Encode()})
		return len(specs) - 1
	}
	var rca, alu []int
	for i := 0; i < rcaSpecs; i++ {
		k := add("rca32", subSeed(seed, 100+i))
		for r := 0; r < rcaRepeats; r++ {
			rca = append(rca, k)
		}
	}
	for i := 0; i < aluSpecs; i++ {
		alu = append(alu, add("alu4", subSeed(seed, 200+i)))
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(rca), func(a, b int) { rca[a], rca[b] = rca[b], rca[a] })
	rng.Shuffle(len(alu), func(a, b int) { alu[a], alu[b] = alu[b], alu[a] })
	order := make([]int, 0, len(rca)+len(alu))
	for len(rca)+len(alu) > 0 {
		if len(order)%4 == 1 && len(alu) > 0 {
			order, alu = append(order, alu[0]), alu[1:]
		} else if len(rca) > 0 {
			order, rca = append(order, rca[0]), rca[1:]
		} else {
			order, alu = append(order, alu[0]), alu[1:]
		}
	}
	return specs, order, nil
}

// reference runs each spec in-process through the same JobSpec → Options
// path the service uses and records its result fingerprint (after the aag
// round trip the HTTP result goes through) and quality ratios.
func (js *jobSpec) reference() error {
	r, err := http.NewRequest(http.MethodPost, "/jobs?"+js.query, nil)
	if err != nil {
		return err
	}
	spec, err := service.SpecFromQuery(r)
	if err != nil {
		return err
	}
	if err := spec.Normalize(); err != nil {
		return err
	}
	opts, err := spec.Options()
	if err != nil {
		return err
	}
	g, err := service.ParseCircuit(spec.Format, js.body)
	if err != nil {
		return err
	}
	res := core.Run(g, opts)
	var buf bytes.Buffer
	if err := aiger.Write(&buf, res.Graph, "aag"); err != nil {
		return err
	}
	back, err := service.ParseCircuit("aag", buf.Bytes())
	if err != nil {
		return err
	}
	fp := aig.Fingerprint(back)
	if js.resultOK && fp != js.refFP {
		return fmt.Errorf("in-process run of %s %s gave %016x, earlier %016x", js.circuit, js.query, fp, js.refFP)
	}
	js.refFP = fp
	if !js.resultOK {
		js.andsR, js.areaR = qualityRatios(g, res.Graph)
	}
	js.resultOK = true
	return nil
}

// memFS is the store the daemon runs on: an in-memory faultfs.FS. Its two
// durability barriers cost a fixed time instead of reaching a disk: a file
// fsync fileSyncLatency and a directory fsync dirSyncLatency, the mean
// fsync times the counting FS measured over faultfs.OS on a 2-vCPU cloud VM
// with a virtio disk, in a quiet period.
//
// A real store made the daemon's latency follow the host's shared disk
// rather than the code. fsync latency drifted 0.2–1.3 ms within minutes,
// and with fsyncs modelled the remaining create, write and rename calls of
// one job still took 0.5–4.8 ms depending on the moment. Over ten seeds
// job_ms.p50 spread 35 % over real fsyncs and 20 % over modelled ones,
// against 10 % and 6 % for the jobs' step time; in memory it spread 5 %
// against 6 %. The store's work still shows: a change that takes fsyncs
// off a job's path saves their modelled latency, the counting FS counts
// fsyncs, files and bytes per job exactly, and the service's own code for
// every store call still runs.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte
	dirs  map[string]bool
	temps int
}

const (
	fileSyncLatency = 400 * time.Microsecond
	dirSyncLatency  = 150 * time.Microsecond
)

// hold returns after d has passed. It spins rather than sleeps: a Go timer
// shorter than a millisecond fires after about 1.1 ms here.
func hold(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

func newMemFS() *memFS {
	return &memFS{files: map[string][]byte{}, dirs: map[string]bool{"/": true, ".": true}}
}

func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

func (m *memFS) MkdirAll(path string, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := filepath.Clean(path); !m.dirs[p]; p = filepath.Dir(p) {
		if _, ok := m.files[p]; ok {
			return &fs.PathError{Op: "mkdir", Path: p, Err: syscall.ENOTDIR}
		}
		m.dirs[p] = true
	}
	return nil
}

func (m *memFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if !m.dirs[dir] {
		return nil, notExist("createtemp", dir)
	}
	m.temps++
	prefix, suffix, _ := strings.Cut(pattern, "*")
	name := filepath.Join(dir, prefix+strconv.Itoa(m.temps)+suffix)
	m.files[name] = nil
	return &memFile{fs: m, name: name}, nil
}

func (m *memFS) Open(name string) (faultfs.File, error) {
	data, err := m.ReadFile(name)
	if err != nil {
		return nil, err
	}
	return &memFile{name: filepath.Clean(name), r: bytes.NewReader(data)}, nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[filepath.Clean(name)]
	if !ok {
		return nil, notExist("open", name)
	}
	return bytes.Clone(data), nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	data, ok := m.files[oldpath]
	if !ok {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: fs.ErrNotExist}
	}
	if !m.dirs[filepath.Dir(newpath)] {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: fs.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = data
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if _, ok := m.files[name]; ok {
		delete(m.files, name)
		return nil
	}
	if !m.dirs[name] {
		return notExist("remove", name)
	}
	if len(m.children(name)) > 0 {
		return &fs.PathError{Op: "remove", Path: name, Err: syscall.ENOTEMPTY}
	}
	delete(m.dirs, name)
	return nil
}

func (m *memFS) RemoveAll(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	under := path + string(filepath.Separator)
	for p := range m.files {
		if p == path || strings.HasPrefix(p, under) {
			delete(m.files, p)
		}
	}
	for p := range m.dirs {
		if p == path || strings.HasPrefix(p, under) {
			delete(m.dirs, p)
		}
	}
	return nil
}

func (m *memFS) ReadDir(name string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if !m.dirs[name] {
		return nil, notExist("open", name)
	}
	infos := m.children(name)
	sort.Slice(infos, func(i, j int) bool { return infos[i].name < infos[j].name })
	entries := make([]fs.DirEntry, len(infos))
	for i, info := range infos {
		entries[i] = fs.FileInfoToDirEntry(info)
	}
	return entries, nil
}

// children lists the entries directly inside dir; m.mu must be held.
func (m *memFS) children(dir string) []memInfo {
	var out []memInfo
	for p, data := range m.files {
		if filepath.Dir(p) == dir {
			out = append(out, memInfo{name: filepath.Base(p), size: int64(len(data))})
		}
	}
	for p := range m.dirs {
		if p != dir && filepath.Dir(p) == dir {
			out = append(out, memInfo{name: filepath.Base(p), dir: true})
		}
	}
	return out
}

func (m *memFS) Stat(name string) (fs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if data, ok := m.files[name]; ok {
		return memInfo{name: filepath.Base(name), size: int64(len(data))}, nil
	}
	if m.dirs[name] {
		return memInfo{name: filepath.Base(name), dir: true}, nil
	}
	return nil, notExist("stat", name)
}

func (m *memFS) SyncDir(dir string) error {
	hold(dirSyncLatency)
	return nil
}

// memFile is a memFS file: a writer appending to its entry when made by
// CreateTemp, a reader over a copy when made by Open.
type memFile struct {
	fs   *memFS
	name string
	r    *bytes.Reader
}

func (f *memFile) Read(p []byte) (int, error) {
	if f.r == nil {
		return 0, &fs.PathError{Op: "read", Path: f.name, Err: fs.ErrPermission}
	}
	return f.r.Read(p)
}

func (f *memFile) Write(p []byte) (int, error) {
	if f.fs == nil {
		return 0, &fs.PathError{Op: "write", Path: f.name, Err: fs.ErrPermission}
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	data, ok := f.fs.files[f.name]
	if !ok {
		return 0, notExist("write", f.name)
	}
	f.fs.files[f.name] = append(data, p...)
	return len(p), nil
}

func (f *memFile) Sync() error {
	hold(fileSyncLatency)
	return nil
}

func (f *memFile) Close() error { return nil }
func (f *memFile) Name() string { return f.name }

// memInfo describes a memFS file or directory.
type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string { return i.name }
func (i memInfo) Size() int64  { return i.size }
func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return i.dir }
func (i memInfo) Sys() any           { return nil }

// countingFS is the faultfs.FS the traced batches hand the service: it
// passes through to memFS, counts durable-write work and
// records a span per fsync, attributed to the job whose directory it hit.
type countingFS struct {
	faultfs.FS
	tr                                *tracer
	batch                             int
	fsyncs, dirFsyncs, creates, bytes atomic.Int64
}

var jobDirRE = regexp.MustCompile(`(?:^|/)j(\d{6})(?:/|$)`)

// jobOf returns the span id of the job a path belongs to, -1 if none.
func (c *countingFS) jobOf(path string) int {
	m := jobDirRE.FindStringSubmatch(filepath.ToSlash(path))
	if m == nil {
		return -1
	}
	n, _ := strconv.Atoi(m[1])
	return c.batch*100000 + n
}

func (c *countingFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	f, err := c.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	c.creates.Add(1)
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := c.FS.SyncDir(dir)
	c.dirFsyncs.Add(1)
	c.tr.add("faultfs.syncdir", c.jobOf(dir), -1, t0, time.Now())
	return err
}

type countingFile struct {
	faultfs.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.fsyncs.Add(1)
	f.fs.tr.add("faultfs.sync", f.fs.jobOf(f.Name()), -1, t0, time.Now())
	return err
}

// jobTiming is what a client saw of one job.
type jobTiming struct {
	t0, submitted, running, ended time.Time
	eventsClosed, done            time.Time
	id                            string
	steps                         int // step events on the stream
}

// daemonBatch is one set-up, job batch and shutdown of the daemon.
type daemonBatch struct {
	traced   bool
	setup    float64
	run      float64
	jobs     []jobTiming
	ckpts    float64
	fs       *countingFS
	heapPeak float64
	rt       runtimeCounters
}

// runDaemon measures the daemon workload for `seconds`: repeated batches,
// each with its own service instance, alternating untraced and traced
// batches under trace.
func runDaemon(seed int64, seconds float64, trace, minimal bool, rep *report) []span {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	specs, order, err := daemonMix(seed)
	if err != nil {
		rep.fail(1, "building the job mix: "+err.Error())
		return nil
	}
	root := filepath.Join(".bench_build", "daemon") // inside each batch's memFS
	tr := newTracer()
	var batches []*daemonBatch
	for b := 0; ; b++ {
		batchStart := time.Now()
		traced := trace && b%2 == 1
		db, err := runBatch(filepath.Join(root, fmt.Sprintf("b%d", b)), b, specs, order, traced, tr, rep)
		if err != nil {
			rep.fail(1, fmt.Sprintf("daemon batch %d: %v", b, err))
			break
		}
		batches = append(batches, db)
		if minimal || ((!trace || b >= 1) && enough(batchStart, deadline)) {
			break
		}
	}
	if len(batches) == 0 {
		return nil
	}

	var setups, runs, rates, heaps, jobMs, stepMs []float64
	var ratiosA, ratiosArea []float64
	for _, js := range order {
		ratiosA, ratiosArea = append(ratiosA, specs[js].andsR), append(ratiosArea, specs[js].areaR)
	}
	for _, db := range batches {
		if db.traced {
			continue
		}
		setups, runs, heaps = append(setups, db.setup), append(runs, db.run), append(heaps, db.heapPeak)
		rates = append(rates, float64(len(db.jobs))/db.run)
		for _, j := range db.jobs {
			jobMs = append(jobMs, ms(j.done.Sub(j.t0)))
			// A one-step job's running event often arrives in the replay
			// burst when the client connects, which would stamp it late.
			if j.steps >= 2 {
				stepMs = append(stepMs, ms(j.ended.Sub(j.running))/float64(j.steps))
			}
		}
	}
	rep.set("setup_s", median(setups))
	rep.set("run_s", median(runs))
	rep.set("step_ms.p50", quantile(stepMs, 0.5))
	rep.set("step_ms.p90", quantile(stepMs, 0.9))
	rep.set("job_ms.p50", quantile(jobMs, 0.5))
	rep.set("job_ms.p90", quantile(jobMs, 0.9))
	rep.set("jobs_per_s", median(rates))
	rep.set("ands_ratio", geomean(ratiosA))
	rep.set("asic_area_ratio", geomean(ratiosArea))
	rep.set("heap_peak_mb", median(heaps)/(1<<20))
	rep.note("%s: untraced batch run_s %s", daemonWorkload, fmtList(runs))
	rep.note("%s: %d untraced batches of %d jobs (%d rca32, %d alu4) from 1 client on %d service workers; step_ms per multi-step job: running to terminal event over its step events",
		daemonWorkload, len(runs), len(order), rcaSpecs*rcaRepeats, aluSpecs, daemonWorkers)
	if !trace {
		return nil
	}

	var tracedRuns, fsyncs, dirFsyncs, creates, bytesW, ckpts []float64
	var queue, submit, result []float64
	var mallocs, allocMB, gcs []float64
	for _, db := range batches {
		if !db.traced {
			mallocs, allocMB, gcs = append(mallocs, db.rt.mallocs), append(allocMB, db.rt.allocMB), append(gcs, db.rt.gcs)
			continue
		}
		n := float64(len(db.jobs))
		tracedRuns = append(tracedRuns, db.run)
		fsyncs = append(fsyncs, float64(db.fs.fsyncs.Load())/n)
		dirFsyncs = append(dirFsyncs, float64(db.fs.dirFsyncs.Load())/n)
		creates = append(creates, float64(db.fs.creates.Load())/n)
		bytesW = append(bytesW, float64(db.fs.bytes.Load())/n)
		ckpts = append(ckpts, db.ckpts/n)
		for _, j := range db.jobs {
			queue = append(queue, ms(j.running.Sub(j.submitted)))
			submit = append(submit, ms(j.submitted.Sub(j.t0)))
			result = append(result, ms(j.done.Sub(j.eventsClosed)))
		}
	}
	rep.set("faultfs.fsyncs_per_job", median(fsyncs))
	rep.set("faultfs.dir_fsyncs_per_job", median(dirFsyncs))
	rep.set("faultfs.files_created_per_job", median(creates))
	rep.set("faultfs.bytes_written_per_job", median(bytesW))
	rep.set("service.checkpoints_per_job", median(ckpts))
	rep.set("service.queue_wait_ms.p50", median(queue))
	rep.set("api.submit_ms.p50", median(submit))
	rep.set("api.result_ms.p50", median(result))
	rep.set("runtime.mallocs", median(mallocs))
	rep.set("runtime.alloc_mb", median(allocMB))
	rep.set("runtime.gc_cycles", median(gcs))
	rep.set("trace.overhead_s", median(tracedRuns)-median(runs))
	spans := attributeFS(tr.snapshot())
	self, tot := selfTimes(spans), totals(spans)
	rep.set("trace.residual_frac", self["job"]/tot["job"])
	rep.note("%s: tracing overhead %.4f s per batch (traced %.4f s vs untraced %.4f s, medians of %d and %d batches)",
		daemonWorkload, median(tracedRuns)-median(runs), median(tracedRuns), median(runs), len(tracedRuns), len(runs))
	return spans
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runBatch sets up a fresh daemon over dir, runs the whole job list
// through it from the closed-loop client, checks every result and shuts
// the daemon down.
func runBatch(dir string, b int, specs []*jobSpec, order []int, traced bool, tr *tracer, rep *report) (*daemonBatch, error) {
	db := &daemonBatch{traced: traced}
	t0 := time.Now()
	store := newMemFS()
	cfg := service.Config{Dir: dir, Workers: daemonWorkers, QueueSize: 64, Now: time.Now, FS: store}
	if traced {
		db.fs = &countingFS{FS: store, tr: tr, batch: b}
		cfg.FS = db.fs
	}
	m, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.Run(ctx)
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		wg.Wait()
		return nil, err
	}
	srv := &http.Server{Handler: service.NewHandler(m), ReadHeaderTimeout: 10 * time.Second}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	shutdown := func() {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = srv.Shutdown(sctx)
		scancel()
		cancel()
		wg.Wait()
	}
	for _, js := range specs {
		if err := js.reference(); err != nil {
			shutdown()
			return nil, fmt.Errorf("reference run: %w", err)
		}
	}
	db.setup = time.Since(t0).Seconds()

	transport := &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 60 * time.Second}
	base := "http://" + ln.Addr().String()

	rt0 := readRuntime()
	timings := make([]jobTiming, len(order))
	errs := make([][]error, len(order))
	heap := newHeapSampler()
	tRun := time.Now()
	for k, js := range order {
		timings[k], errs[k] = runJob(client, base, specs[js])
		heap.sample()
	}
	db.run = time.Since(tRun).Seconds()
	db.rt = readRuntime().sub(rt0)
	db.jobs = timings
	db.heapPeak = heap.peak()
	for k, es := range errs {
		rep.attempted += 4
		for _, e := range es {
			rep.fail(1, fmt.Sprintf("daemon job %d (%s): %v", k, specs[order[k]].circuit, e))
		}
	}

	ckpts, err := scrapeCheckpoints(client, base)
	rep.attempted++
	if err != nil {
		rep.fail(1, "scraping /metrics: "+err.Error())
	}
	db.ckpts = ckpts
	shutdown()
	if traced {
		for _, j := range timings {
			addJobSpans(tr, b*100000+jobNum(j.id), j)
		}
	}
	return db, nil
}

func jobNum(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "j"))
	return n
}

// addJobSpans records one job's client-side phases.
func addJobSpans(tr *tracer, id int, j jobTiming) {
	root := tr.add("job", id, -1, j.t0, j.done)
	tr.add("api.submit", id, root, j.t0, j.submitted)
	tr.add("service.queue_wait", id, root, j.submitted, j.running)
	tr.add("service.run", id, root, j.running, j.ended)
	tr.add("api.events_close", id, root, j.ended, j.eventsClosed)
	tr.add("api.result", id, root, j.eventsClosed, j.done)
}

// attributeFS gives each fsync span the job phase span of its job that
// contains its start (or the job span itself).
func attributeFS(spans []span) []span {
	phases := map[int][]int{}
	for i, s := range spans {
		if s.Parent >= 0 || s.Name == "job" {
			phases[s.ID] = append(phases[s.ID], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if !strings.HasPrefix(s.Name, "faultfs.") || s.ID < 0 {
			continue
		}
		best := -1
		for _, p := range phases[s.ID] {
			ps := spans[p]
			if ps.Start <= s.Start && s.Start < ps.End && (best < 0 || spans[best].Name == "job") {
				best = p
			}
		}
		s.Parent = best
	}
	return spans
}

// runJob drives one job through the HTTP API: submit, follow the event
// stream to the terminal state, fetch the result, and check it.
func runJob(client *http.Client, base string, js *jobSpec) (jobTiming, []error) {
	var jt jobTiming
	var errs []error
	jt.t0 = time.Now()
	resp, err := client.Post(base+"/jobs?"+js.query, "application/octet-stream", bytes.NewReader(js.body))
	if err != nil {
		return jt, append(errs, err)
	}
	var st struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	jt.submitted = time.Now()
	if resp.StatusCode/100 != 2 || err != nil || st.ID == "" {
		return jt, append(errs, fmt.Errorf("submit: HTTP %d, %v", resp.StatusCode, err))
	}
	jt.id = st.ID

	state, err := followEvents(client, base, st.ID, &jt)
	jt.eventsClosed = time.Now()
	if err != nil {
		errs = append(errs, err)
	}
	if state != string(service.StateDone) {
		errs = append(errs, fmt.Errorf("job %s ended %q", st.ID, state))
	}

	resp, err = client.Get(base + "/jobs/" + st.ID + "/result?format=aag")
	if err != nil {
		jt.done = time.Now()
		return jt, append(errs, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	jt.done = time.Now()
	if resp.StatusCode/100 != 2 || err != nil {
		return jt, append(errs, fmt.Errorf("result: HTTP %d, %v", resp.StatusCode, err))
	}
	g, err := service.ParseCircuit("aag", body)
	if err != nil {
		return jt, append(errs, fmt.Errorf("result does not parse: %w", err))
	}
	if err := g.CheckStrict(); err != nil {
		errs = append(errs, fmt.Errorf("result CheckStrict: %w", err))
	}
	if fp := aig.Fingerprint(g); fp != js.refFP {
		errs = append(errs, fmt.Errorf("result fingerprint %016x, in-process run %016x", fp, js.refFP))
	}
	return jt, errs
}

// followEvents reads the NDJSON stream until the job's terminal state and
// stamps the running and terminal events' arrival.
func followEvents(client *http.Client, base, id string, jt *jobTiming) (string, error) {
	resp, err := client.Get(base + "/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return "", fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", fmt.Errorf("events: %w", err)
		}
		now := time.Now()
		if ev.Step != nil {
			jt.steps++
		}
		if ev.State == service.StateRunning && jt.running.IsZero() {
			jt.running = now
		}
		if ev.State.Terminal() {
			jt.ended = now
			if jt.running.IsZero() {
				jt.running = now
			}
			return string(ev.State), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	// The stream closed without a terminal event (a lagging subscriber can
	// lose events): ask the status endpoint.
	jt.ended = time.Now()
	if jt.running.IsZero() {
		jt.running = jt.ended
	}
	sresp, err := client.Get(base + "/jobs/" + id + "?history=0")
	if err != nil {
		return "", err
	}
	defer sresp.Body.Close()
	var st service.JobStatus
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		return "", err
	}
	return string(st.State), nil
}

// scrapeCheckpoints reads alsrac_checkpoints_total from /metrics.
func scrapeCheckpoints(client *http.Client, base string) (float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return 0, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "alsrac_checkpoints_total "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no alsrac_checkpoints_total series")
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}
