package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"drapid"
	"drapid/internal/core"
	"drapid/internal/dmgrid"
	"drapid/internal/features"
	"drapid/internal/fleet"
	"drapid/internal/pipeline"
	"drapid/internal/rapidmt"
	"drapid/internal/rdd"
	"drapid/internal/sps"
	"drapid/internal/synth"
)

// setups is how many times a run builds its environment and runs the
// warm-up job; setup_s is their median, and the warm-up jobs double as
// the repeat-submission check across fresh engines.
const setups = 3

// blobCacheBytes bounds each loopback worker's blob cache to one
// observation: detect-fleet submits each observation twice in a row, so
// the second dispatch hits and the next observation evicts it.
const blobCacheBytes = 80 << 20

// countingListener counts every byte read from and written to the
// connections it accepts: the fleet's wire traffic, seen from the worker.
type countingListener struct {
	net.Listener
	n atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// loopWorker is one fleet worker served in this process: fleet.NewHandler
// with a single search worker and its own blob cache, on a loopback
// listener.
type loopWorker struct {
	url  string
	ln   *countingListener
	srv  *http.Server
	done chan struct{}
}

func startWorker() (*loopWorker, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening for a fleet worker: %w", err)
	}
	exec := rdd.ExecConfig{Workers: 1}
	exec.Limiter = rdd.NewLimiter(exec.NumWorkers())
	w := &loopWorker{
		url:  "http://" + ln.Addr().String(),
		ln:   &countingListener{Listener: ln},
		srv:  &http.Server{Handler: fleet.NewHandler(exec, fleet.NewBlobCache(blobCacheBytes, nil))},
		done: make(chan struct{}),
	}
	go func() {
		defer close(w.done)
		_ = w.srv.Serve(w.ln) // returns http.ErrServerClosed once close runs
	}()
	return w, nil
}

// ping waits until the worker answers the shard protocol's ping.
func (w *loopWorker) ping() error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(w.url + "/v1/shard/ping")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %s", resp.Status)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet worker %s not answering ping: %w", w.url, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (w *loopWorker) close() {
	w.srv.Close()
	<-w.done
}

// env is one engine under test, with its loopback fleet on detect-fleet.
type env struct {
	engine  *drapid.Engine
	workers []*loopWorker
}

func newEnv(workload string) (*env, error) {
	e := &env{}
	opts := []drapid.Option{drapid.WithMetrics(drapid.NewMetricsRegistry())}
	if workload == "detect-fleet" {
		var urls []string
		for i := 0; i < fleetShards; i++ {
			w, err := startWorker()
			if err != nil {
				e.close()
				return nil, err
			}
			e.workers = append(e.workers, w)
			urls = append(urls, w.url)
		}
		opts = append(opts, drapid.WithRemoteWorkers(urls...))
	}
	eng, err := drapid.New(opts...)
	if err != nil {
		e.close()
		return nil, err
	}
	e.engine = eng
	for _, w := range e.workers {
		if err := w.ping(); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// wire is the byte count on every worker connection so far.
func (e *env) wire() int64 {
	var n int64
	for _, w := range e.workers {
		n += w.ln.n.Load()
	}
	return n
}

func (e *env) close() {
	if e.engine != nil {
		e.engine.Close()
	}
	for _, w := range e.workers {
		w.close()
	}
}

// input is one job's input: an observation for the detect workloads, the
// CSV line pair for identify.
type input struct {
	obs   *observation
	ident *identifyInput
}

func (in input) bytes() int64 {
	if in.obs != nil {
		return int64(len(in.obs.raw))
	}
	return in.ident.bytes
}

// submitFunc starts one job on an engine.
type submitFunc func(context.Context, *drapid.Engine) (*drapid.Job, error)

// submitter returns the workload's submission of in.
func submitter(workload string, in input) submitFunc {
	return func(ctx context.Context, eng *drapid.Engine) (*drapid.Job, error) {
		if in.ident != nil {
			return eng.Submit(ctx, drapid.IdentifyJob{Data: in.ident.data, Clusters: in.ident.clusters})
		}
		return eng.SubmitDetect(ctx, detectJob(workload, in.obs.raw))
	}
}

// detectJob is the DetectJob a detect workload submits for raw.
func detectJob(workload string, raw []byte) drapid.DetectJob {
	spec := drapid.DetectJob{Key: obsKey, DMMax: searchDMMax, DMStep: searchDMStep, Threshold: searchThresh}
	switch workload {
	case "detect-stream":
		spec.FilterbankStream = bytes.NewReader(raw)
		spec.BlockSamples = streamBlock
	case "detect-fleet":
		spec.Filterbank = raw
		spec.Shards = fleetShards
	default:
		spec.Filterbank = raw
	}
	return spec
}

// jobOut is what one job produced and cost.
type jobOut struct {
	secs, submitSecs float64
	alloc            uint64
	wire             int64
	cands            []drapid.Candidate
	lines            []string // candidate CSV lines, sorted
	res              drapid.Result
}

// runJob submits one job, drains its candidate stream and waits for it:
// the closed loop's unit of work. The heap is collected first, outside
// the clock, so every job starts from the same state.
func runJob(e *env, submit submitFunc) (jobOut, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, wire0 := ms.TotalAlloc, e.wire()
	ctx := context.Background()
	var out jobOut
	start := time.Now()
	job, err := submit(ctx, e.engine)
	out.submitSecs = time.Since(start).Seconds()
	if err != nil {
		return out, err
	}
	for c, err := range job.Results() {
		if err != nil {
			return out, err
		}
		out.cands = append(out.cands, c)
	}
	out.res, err = job.Wait(ctx)
	out.secs = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms)
	out.alloc, out.wire = ms.TotalAlloc-alloc0, e.wire()-wire0
	if err != nil {
		return out, err
	}
	// The engine keeps finished jobs for inspection; drop this one so a
	// run's memory stays flat however many jobs it makes.
	if err := e.engine.Remove(job.ID()); err != nil {
		return out, err
	}
	out.lines = candidateLines(out.cands)
	return out, nil
}

func candidateLines(cs []drapid.Candidate) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.CSV()
	}
	sort.Strings(out)
	return out
}

func recordLines(rs []pipeline.MLRecord) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Format()
	}
	sort.Strings(out)
	return out
}

// inputs generates a run's inputs on demand and digests them in the
// order they are used. Observation 0 (or identify input 0) is the
// warm-up input; the timed phase never reuses it.
type inputs struct {
	workload string
	seed     int64
	dg       *digest
	used     int
	last     int // index of cached, -1 for none
	cached   input
}

func newInputs(workload string, seed int64) *inputs {
	return &inputs{workload: workload, seed: seed, dg: newDigest(), last: -1}
}

// get returns input i, digesting it the first time it is used. Only the
// latest input is kept: any other is generated again, identically.
func (s *inputs) get(i int) (input, error) {
	if i == s.last {
		return s.cached, nil
	}
	var in input
	if s.workload == "identify" {
		in.ident = genIdentify(s.seed, i)
	} else {
		o, err := genObservation(s.seed, i)
		if err != nil {
			return input{}, err
		}
		in.obs = &o
	}
	if i >= s.used {
		if in.obs != nil {
			s.dg.bytes(in.obs.raw)
		} else {
			s.dg.lines(in.ident.data)
			s.dg.lines(in.ident.clusters)
		}
		s.used = i + 1
	}
	s.last, s.cached = i, in
	return in, nil
}

// timedInput maps the k-th timed job to its input index: a fresh input
// per job, except that detect-fleet submits each observation twice in a
// row (a re-search, so the second dispatch finds the blob cached) and
// identify resubmits one input set.
func timedInput(workload string, k int) int {
	switch workload {
	case "detect-fleet":
		return 1 + k/2
	case "identify":
		return 1
	}
	return 1 + k
}

// pairOpen reports whether timed job k is the second submission of a
// detect-fleet pair, which the loop always runs: a run measures whole
// pairs, so its wire bytes per job do not depend on the job count.
func pairOpen(workload string, k int) bool {
	return workload == "detect-fleet" && k%2 == 1
}

// setup builds the environment and runs the warm-up job, setups times;
// it returns the last environment (open) and every setup's seconds.
func setup(cfg runConfig, ins *inputs) (*env, []float64, []jobOut, error) {
	warm, err := ins.get(0)
	if err != nil {
		return nil, nil, nil, err
	}
	var secs []float64
	var warms []jobOut
	var e *env
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		start := time.Now()
		e, err = newEnv(cfg.workload)
		if err != nil {
			return nil, nil, nil, err
		}
		out, err := runJob(e, submitter(cfg.workload, warm))
		if err != nil {
			e.close()
			return nil, nil, nil, fmt.Errorf("warm-up job: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		warms = append(warms, out)
	}
	return e, secs, warms, nil
}

// runE2E is the end-to-end mode: set up, run the closed loop for the
// configured seconds of job time, then check every output.
func runE2E(cfg runConfig) (result, stamp, error) {
	ins := newInputs(cfg.workload, cfg.seed)
	e, setupSecs, warms, err := setup(cfg, ins)
	if err != nil {
		return result{}, stamp{}, err
	}
	defer e.close()

	var (
		jobs     []jobOut
		inIdx    []int
		failures []string
		busy     float64
		inBytes  int64
	)
	bad := map[int]bool{} // timed jobs that failed or failed a check
	fail := func(k int, format string, args ...any) {
		bad[k] = true
		failures = append(failures, fmt.Sprintf("job %d: ", k)+fmt.Sprintf(format, args...))
	}
	loopStart := time.Now()
	for k := 0; (busy < cfg.seconds || pairOpen(cfg.workload, k)) && time.Since(loopStart).Seconds() < 3*cfg.seconds+60; k++ {
		idx := timedInput(cfg.workload, k)
		in, err := ins.get(idx)
		if err != nil {
			return result{}, stamp{}, err
		}
		out, err := runJob(e, submitter(cfg.workload, in))
		if err != nil {
			fail(k, "%v", err)
		}
		busy += out.secs
		inBytes += in.bytes()
		jobs = append(jobs, out)
		inIdx = append(inIdx, idx)
	}

	// Correctness, outside the clock. The warm-up jobs ran the same input
	// on fresh engines: repeat submissions must agree.
	warmBad := 0
	for i := 1; i < len(warms); i++ {
		if !slices.Equal(warms[0].lines, warms[i].lines) {
			warmBad++
			failures = append(failures, fmt.Sprintf("warm-up job on fresh engine %d: %d candidates, engine 0 gave %d",
				i, len(warms[i].lines), len(warms[0].lines)))
		}
	}
	chk := &checker{workload: cfg.workload, e: e, ins: ins, oracle: map[int][]string{}}
	var matched, injected int
	jobRecall := make([]float64, len(jobs))
	for k := range jobs {
		if bad[k] {
			continue
		}
		if jobs[k].res.Records != len(jobs[k].lines) {
			fail(k, "Result.Records = %d, streamed %d", jobs[k].res.Records, len(jobs[k].lines))
		}
		m, n, msgs := chk.check(inIdx[k], &jobs[k])
		matched, injected = matched+m, injected+n
		jobRecall[k] = float64(m) / float64(n)
		for _, msg := range msgs {
			fail(k, "%s", msg)
		}
	}
	if cfg.workload != "identify" {
		// The warm-up observation is searched too: its pulses count.
		m, n := detectRecall(detectSpec(cfg.seed, 0), warms[0].cands)
		matched, injected = matched+m, injected+n
	}
	recall := 0.0
	if injected > 0 {
		recall = float64(matched) / float64(injected)
	}
	// The floor is a claim about the program's recall, and a run samples
	// only 50 to 100 pulses: the run fails it when even the upper 99%
	// confidence bound of its pooled recall is below the floor. The jobs
	// under the floor are the ones that fail.
	if cfg.workload != "identify" && recallUpper(matched, injected) < cfg.minRecall {
		for k, r := range jobRecall {
			if r < cfg.minRecall {
				fail(k, "recall %.3f; the run's %.3f (at most %.3f) is below %.2f",
					r, recall, recallUpper(matched, injected), cfg.minRecall)
			}
		}
	}

	n := float64(len(jobs))
	secs := make([]float64, len(jobs))
	var alloc, wire float64
	stages := map[string][]float64{}
	for k, j := range jobs {
		secs[k] = j.secs
		alloc += float64(j.alloc)
		wire += float64(j.wire + j.res.ShuffleBytes)
		for name, s := range j.res.Stages {
			stages[name] = append(stages[name], s.WallSeconds)
		}
	}
	st := stamp{InputsSHA256: ins.dg.sum(), Jobs: len(jobs), JobSeconds: secs, Failures: failures, EngineStages: map[string]float64{}}
	if chk.rankDefects > 0 {
		st.KnownDefects = map[string]int{"stream_cluster_rank_jobs": chk.rankDefects}
	}
	for name, v := range stages {
		st.EngineStages["engine.stage."+name+"_s"] = median(v)
	}
	res := result{
		Correct:   len(failures) == 0,
		Attempted: len(jobs) + len(warms),
		Failed:    len(bad) + warmBad,
		Metrics: map[string]metric{
			"job_p50_s":        {median(secs), "s"},
			"throughput_mb_s":  {float64(inBytes) / 1e6 / busy, "MB/s"},
			"alloc_mb_per_job": {alloc / 1e6 / n, "MB"},
			"recall":           {recall, "fraction"},
			"wire_mb_per_job":  {wire / 1e6 / n, "MB"},
			"setup_s":          {median(setupSecs), "s"},
		},
	}
	return res, st, nil
}

// checker holds a run's oracles, computed once per input.
type checker struct {
	workload string
	e        *env
	ins      *inputs
	oracle   map[int][]string // input index → oracle candidate lines
	// rankDefects counts detect-stream jobs whose candidates match the
	// batch oracle only with ClusterRank masked.
	rankDefects int
}

// check verifies a job run over input idx and returns the injected
// pulses it recovered, the pulses injected, and any failures.
func (c *checker) check(idx int, j *jobOut) (matched, injected int, failures []string) {
	in, err := c.ins.get(idx)
	if err != nil {
		return 0, 0, []string{err.Error()}
	}
	if in.obs != nil {
		matched, injected = detectRecall(in.obs.spec, j.cands)
	} else {
		matched, injected = identifyRecall(in.ident, j.cands)
	}
	want, ok := c.oracle[idx]
	if !ok {
		if want, err = c.reference(in); err != nil {
			return matched, injected, append(failures, fmt.Sprintf("oracle run: %v", err))
		}
		c.oracle[idx] = want
	}
	got := j.lines
	if want != nil && c.workload == "detect-stream" {
		// Streaming clusters and identifies segment by segment, so its
		// ClusterRank (a cluster's rank among the observation's clusters)
		// is segment-local where batch ranks over the whole observation.
		// That known defect is counted, not failed; every other field must
		// match the batch oracle.
		if !slices.Equal(want, got) {
			c.rankDefects++
		}
		want, got = maskRank(want), maskRank(got)
	}
	if want != nil && !slices.Equal(want, got) {
		failures = append(failures, fmt.Sprintf("%d candidates differ from the oracle's %d", len(got), len(want)))
	}
	return matched, injected, failures
}

// maskRank blanks the ClusterRank field of candidate CSV lines (key,
// cluster and pulse rank precede the features) and sorts them again.
func maskRank(lines []string) []string {
	out := make([]string, len(lines))
	for i, l := range lines {
		f := strings.Split(l, ",")
		if k := 3 + features.ClusterRank; k < len(f) {
			f[k] = "*"
		}
		out[i] = strings.Join(f, ",")
	}
	sort.Strings(out)
	return out
}

// reference computes the oracle output for an input. Every job on the
// same input is compared with it, so resubmissions (detect-fleet's pairs,
// identify's repeats) must also agree with each other. detect-batch has
// no oracle beyond recall and the warm-up repeats: it is the others'
// reference.
//   - detect-stream: a batch run with NormWindow = sps.DefaultNormWindow
//   - detect-fleet: the same DetectJob unsharded, on the same engine
//   - identify: rapidmt.Run, the multithreaded RAPID program
func (c *checker) reference(in input) ([]string, error) {
	switch c.workload {
	case "detect-stream":
		spec := detectJob("detect-batch", in.obs.raw)
		spec.NormWindow = sps.DefaultNormWindow
		return c.engineLines(spec)
	case "detect-fleet":
		return c.engineLines(detectJob("detect-batch", in.obs.raw))
	case "identify":
		mt, err := rapidmt.Run(in.ident.data, in.ident.clusters, runtime.NumCPU(),
			rapidmt.PaperWorkstation(), rdd.DefaultCostModel(), core.DefaultParams(), identifyFeatures())
		if err != nil {
			return nil, err
		}
		return recordLines(mt.ML), nil
	}
	return nil, nil
}

func (c *checker) engineLines(spec drapid.DetectJob) ([]string, error) {
	out, err := runJob(c.e, func(ctx context.Context, eng *drapid.Engine) (*drapid.Job, error) {
		return eng.SubmitDetect(ctx, spec)
	})
	return out.lines, err
}

// identifyFeatures is the feature context an IdentifyJob with zero
// FreqGHz/BandMHz runs with.
func identifyFeatures() features.Config {
	return features.Config{Grid: dmgrid.Default(), BandMHz: 300, FreqGHz: 1.4}
}

// recallUpper is the upper end of the one-sided 99% Wilson score
// interval for a recall of matched out of n.
func recallUpper(matched, n int) float64 {
	if n == 0 {
		return 0
	}
	const z = 2.33
	p, fn := float64(matched)/float64(n), float64(n)
	return (p + z*z/(2*fn) + z*math.Sqrt(p*(1-p)/fn+z*z/(4*fn*fn))) / (1 + z*z/fn)
}

// detectRecall applies TestDetectJobRecall's rule: an injected pulse is
// recovered when a candidate peaks within 6 pc cm⁻³ of its DM and spans
// its centre ±50 ms.
func detectRecall(spec drapid.SynthSpec, cands []drapid.Candidate) (matched, injected int) {
	for _, p := range spec.Pulses {
		center := p.TimeSec + p.WidthMs/2000
		for _, cand := range cands {
			f := cand.Features
			if math.Abs(f[features.SNRPeakDM]-p.DM) <= 6 &&
				f[features.StartTime] <= center+0.05 && f[features.StopTime] >= center-0.05 {
				matched++
				break
			}
		}
	}
	return matched, len(spec.Pulses)
}

// identifyRecall scores identify candidates against the generator's
// ground truth: an injected pulsar or RRAT pulse that left at least a
// DBSCAN cluster's worth of events is recovered when a candidate of the
// same observation overlaps its DM–time box (1 pc cm⁻³ and 50 ms of
// slack) and peaks inside its DM span (±2), the matching rule of the
// labelled benchmark datasets (internal/experiments).
func identifyRecall(in *identifyInput, cands []drapid.Candidate) (matched, injected int) {
	byKey := map[string][]drapid.Candidate{}
	for _, cand := range cands {
		byKey[cand.Key] = append(byKey[cand.Key], cand)
	}
	for key, truth := range in.truth {
		for i := range truth {
			inj := &truth[i]
			if (inj.Class != synth.ClassPulsar && inj.Class != synth.ClassRRAT) || inj.NumSPE < minClusterEvents {
				continue
			}
			injected++
			for _, cand := range byKey[key] {
				f := cand.Features
				dmLo, dmHi := f[features.DMCenter]-f[features.DMRange]/2, f[features.DMCenter]+f[features.DMRange]/2
				if inj.Overlaps(dmLo, dmHi, f[features.StartTime], f[features.StopTime], 1.0, 0.05) &&
					f[features.SNRPeakDM] >= inj.DMLo-2 && f[features.SNRPeakDM] <= inj.DMHi+2 {
					matched++
					break
				}
			}
		}
	}
	return matched, injected
}
