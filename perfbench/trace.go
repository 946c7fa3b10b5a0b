package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"drapid/internal/core"
	"drapid/internal/dbscan"
	"drapid/internal/dmgrid"
	"drapid/internal/features"
	"drapid/internal/fleet"
	"drapid/internal/hdfs"
	"drapid/internal/pipeline"
	"drapid/internal/rapidmt"
	"drapid/internal/rdd"
	"drapid/internal/sift"
	"drapid/internal/spe"
	"drapid/internal/sps"
	"drapid/internal/yarn"
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0 for a root span
	Iter   int                `json:"iter"`   // timed iteration; -1 for the warm-up
	Name   string             `json:"name"`
	Start  float64            `json:"start"` // seconds since the trace began
	End    float64            `json:"end"`
	Counts map[string]float64 `json:"counts,omitempty"`

	alloc0 uint64
}

func (s *span) dur() float64 { return s.End - s.Start }

func (s *span) set(key string, v float64) {
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[key] = v
}

// tracer keeps every span in memory until the run writes them out. begin
// nests a span under the innermost open one; child records a span under
// it without opening a scope, for calls that run concurrently (fleet
// shards). Safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	iter  int
	spans []*span
	stack []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), iter: -1} }

func (t *tracer) open(name string, push bool) *span {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{ID: len(t.spans) + 1, Iter: t.iter, Name: name, alloc0: ms.TotalAlloc}
	if n := len(t.stack); n > 0 {
		s.Parent = t.stack[n-1].ID
	}
	t.spans = append(t.spans, s)
	if push {
		t.stack = append(t.stack, s)
	}
	s.Start = time.Since(t.t0).Seconds()
	return s
}

func (t *tracer) begin(name string) *span { return t.open(name, true) }
func (t *tracer) child(name string) *span { return t.open(name, false) }

// end closes s, recording the bytes allocated while it was open.
func (t *tracer) end(s *span) {
	end := time.Since(t.t0).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.mu.Lock()
	defer t.mu.Unlock()
	s.End = end
	s.set("alloc_bytes", float64(ms.TotalAlloc-s.alloc0))
	if n := len(t.stack); n > 0 && t.stack[n-1] == s {
		t.stack = t.stack[:n-1]
	}
}

// self returns each span's self time: its duration minus the part of it
// its children cover.
func (t *tracer) self() map[int]float64 {
	kids := map[int][]*span{}
	for _, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := make(map[int]float64, len(t.spans))
	for _, s := range t.spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, hi := 0.0, s.Start
		for _, c := range cs {
			lo, e := math.Max(c.Start, hi), math.Min(c.End, s.End)
			if e > lo {
				covered += e - lo
				hi = e
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// write saves the spans as JSON under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// timedWorker times each shard a fleet worker runs.
type timedWorker struct {
	fleet.Worker
	t *tracer
}

func (w timedWorker) Run(ctx context.Context, spec fleet.ShardSpec, emit func([]spe.SPE) error) (sps.Stats, error) {
	s := w.t.child("fleet.shard")
	stats, err := w.Worker.Run(ctx, spec, emit)
	w.t.end(s)
	return stats, err
}

// composer runs a workload's job as the engine does, one layer call at a
// time, each inside a span: ingest and search (sps), or shard planning
// and dispatch (fleet); then clustering (dbscan), upload (hdfs), sifting
// (sift) and identification (pipeline/rdd). Its building blocks mirror
// the engine's defaults: the host-wide executor, an 8 MB-block 15-node
// filesystem and four paper-shape executors.
type composer struct {
	workload string
	t        *tracer
	exec     rdd.ExecConfig
	fs       *hdfs.FS
	grants   []yarn.Container
	grid     *dmgrid.Grid
	key      spe.Key
	jobs     int
	// detect-fleet: the composer's own loopback workers and coordinator,
	// so its blob caches go cold and warm exactly as the engine's do.
	workers []*loopWorker
	coord   *fleet.Coordinator
}

func newComposer(workload string, t *tracer) (*composer, error) {
	c := &composer{workload: workload, t: t}
	c.exec.Limiter = rdd.NewLimiter(c.exec.NumWorkers())
	c.fs = hdfs.New(hdfs.Config{BlockSize: 8 << 20, Replication: 3}, 15)
	grants, err := yarn.NewResourceManager(yarn.PaperCluster()).Allocate(yarn.PaperExecutor(), 4)
	if err != nil {
		return nil, err
	}
	c.grants = grants
	if workload == "identify" {
		return c, nil
	}
	// The trial grid DetectJob builds from DMMax and DMStep.
	n := math.Floor(searchDMMax/searchDMStep+1e-9) + 1
	if c.grid, err = dmgrid.New([]dmgrid.Stage{{Lo: 0, Hi: n * searchDMStep, Step: searchDMStep}}); err != nil {
		return nil, err
	}
	if c.key, err = spe.ParseKey(obsKey); err != nil {
		return nil, err
	}
	if workload == "detect-fleet" {
		var ws []fleet.Worker
		for i := 0; i < fleetShards; i++ {
			w, err := startWorker()
			if err != nil {
				c.close()
				return nil, err
			}
			c.workers = append(c.workers, w)
			if err := w.ping(); err != nil {
				c.close()
				return nil, err
			}
			ws = append(ws, timedWorker{Worker: fleet.NewRemote(fmt.Sprintf("remote-%d", i), w.url, nil), t: t})
		}
		c.coord = fleet.NewCoordinator(fleet.Config{}, ws...)
	}
	return c, nil
}

func (c *composer) close() {
	if c.coord != nil {
		c.coord.Close()
	}
	for _, w := range c.workers {
		w.close()
	}
}

func (c *composer) wire() int64 {
	var n int64
	for _, w := range c.workers {
		n += w.ln.n.Load()
	}
	return n
}

// run composes one job over in and returns its candidate lines, sorted;
// baselines adds the single-threaded search and RAPID runs.
func (c *composer) run(in input, baselines bool) ([]string, error) {
	c.jobs++
	dir := fmt.Sprintf("trace/%d", c.jobs)
	ctx := context.Background()
	rctx := rdd.NewContext(c.fs, rdd.FromContainers(c.grants), rdd.DefaultCostModel())
	rctx.Exec = c.exec

	root := c.t.begin("job")
	var (
		lines []string
		preps [][2][]string
		feat  features.Config
		p     core.Params
		err   error
	)
	if in.ident != nil {
		feat, p = identifyFeatures(), core.DefaultParams()
		lines, err = c.identify(rctx, dir, in.ident)
		preps = [][2][]string{{in.ident.data, in.ident.clusters}}
	} else {
		var seg *segments
		seg, err = c.detect(ctx, rctx, dir, in.obs.raw)
		if seg != nil {
			lines, preps, feat, p = recordLines(seg.recs), seg.preps, seg.feat, seg.params
		}
	}
	c.t.end(root)
	if err != nil {
		return nil, err
	}
	for _, f := range c.fs.List() {
		_ = c.fs.Delete(f) // each job's files are its own; Delete of a listed file cannot fail
	}

	kg := c.t.begin("core.keygroups")
	groups := 0
	for _, pr := range preps {
		n, err := keyGroups(pr[0], pr[1], p, feat)
		if err != nil {
			return nil, err
		}
		groups += n
	}
	kg.set("keygroups", float64(groups))
	c.t.end(kg)

	if baselines {
		mt := c.t.begin("rapidmt.run_1t")
		for _, pr := range preps {
			if _, err := rapidmt.Run(pr[0], pr[1], 1, rapidmt.PaperWorkstation(), rdd.DefaultCostModel(), p, feat); err != nil {
				return nil, err
			}
		}
		c.t.end(mt)
		if in.obs != nil {
			fb, err := sps.Read(bytes.NewReader(in.obs.raw))
			if err != nil {
				return nil, err
			}
			exec := rdd.ExecConfig{Workers: 1}
			exec.Limiter = rdd.NewLimiter(1)
			s1 := c.t.begin("sps.search_1w")
			_, _, err = sps.Search(ctx, fb, c.searchConfig(exec, 0))
			c.t.end(s1)
			if err != nil {
				return nil, err
			}
		}
	}
	return lines, nil
}

// keyGroups runs Algorithm 1 and feature extraction serially over every
// observation key of the two CSV inputs, as rapidmt groups them.
func keyGroups(data, clusters []string, p core.Params, feat features.Config) (int, error) {
	byKey := func(lines []string) (map[string][]string, []string, error) {
		m := map[string][]string{}
		var order []string
		for _, l := range lines {
			if spe.IsHeader(l) {
				continue
			}
			k, payload, err := spe.SplitKeyed(l)
			if err != nil {
				return nil, nil, err
			}
			if _, ok := m[k]; !ok {
				order = append(order, k)
			}
			m[k] = append(m[k], payload)
		}
		return m, order, nil
	}
	dm, _, err := byKey(data)
	if err != nil {
		return 0, err
	}
	cm, keys, err := byKey(clusters)
	if err != nil {
		return 0, err
	}
	for _, k := range keys {
		if _, _, err := pipeline.ProcessKeyGroup(k, cm[k], dm[k], p, feat); err != nil {
			return 0, err
		}
	}
	return len(keys), nil
}

// identify is the IdentifyJob path: upload both inputs, then run D-RAPID.
func (c *composer) identify(rctx *rdd.Context, dir string, in *identifyInput) ([]string, error) {
	up := c.t.begin("hdfs.upload")
	_, err := c.fs.WriteLines(dir+"/spe.csv", in.data)
	if err == nil {
		_, err = c.fs.WriteLines(dir+"/clusters.csv", in.clusters)
	}
	up.set("bytes", float64(in.bytes))
	c.t.end(up)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var recs []pipeline.MLRecord
	sp := c.t.begin("pipeline.identify")
	res, err := pipeline.RunDRAPID(rctx, pipeline.JobConfig{
		DataFile: dir + "/spe.csv", ClusterFile: dir + "/clusters.csv", OutDir: dir + "/ml",
		PartitionsPerCore: 32, Feat: identifyFeatures(),
		Emit: func(rs []pipeline.MLRecord) {
			mu.Lock()
			recs = append(recs, rs...)
			mu.Unlock()
		},
	})
	setPipeline(sp, res, rdd.Metrics{})
	c.t.end(sp)
	if err != nil {
		return nil, err
	}
	return recordLines(recs), nil
}

func setPipeline(sp *span, res pipeline.JobResult, prev rdd.Metrics) {
	sp.set("records", float64(res.Records))
	sp.set("tasks", float64(res.Metrics.Tasks-prev.Tasks))
	sp.set("shuffle_bytes", float64(res.Metrics.ShuffleBytes-prev.ShuffleBytes))
}

func (c *composer) searchConfig(exec rdd.ExecConfig, block int) sps.Config {
	return sps.Config{
		DMs: c.grid.Trials(), Threshold: searchThresh, ZeroDM: true,
		Plan: sps.DedispersePlan{Kind: sps.PlanAuto}, Exec: exec, BlockSamples: block,
	}
}

// detect is the DetectJob path of the workload.
func (c *composer) detect(ctx context.Context, rctx *rdd.Context, dir string, raw []byte) (*segments, error) {
	seg := &segments{c: c, rctx: rctx, dir: dir, params: core.DefaultParams(), single: c.workload != "detect-stream"}
	// Algorithm 1's slope threshold scaled to the grid spacing, as the
	// engine does for detect grids coarser than 0.25.
	if step := c.grid.SpacingAt(c.grid.Min()); step > 0.25 {
		seg.params.SlopeM = core.DefaultSlopeM * 0.25 / step
	}
	rd := c.t.begin("sps.read")
	var hdr sps.Header
	var fb *sps.Filterbank
	var body *bufio.Reader
	var err error
	if c.workload == "detect-stream" {
		body = bufio.NewReaderSize(bytes.NewReader(raw), 1<<16)
		hdr, err = sps.ReadHeader(body)
		rd.set("bytes", float64(len(raw)-body.Buffered()))
	} else {
		fb, err = sps.Read(bytes.NewReader(raw))
		if fb != nil {
			hdr = fb.Header
		}
		rd.set("bytes", float64(len(raw)))
	}
	c.t.end(rd)
	if err != nil {
		return nil, err
	}
	seg.feat = features.Config{Grid: c.grid, BandMHz: hdr.BandwidthMHz(), FreqGHz: hdr.CenterFreqGHz()}

	var stats sps.Stats
	switch c.workload {
	case "detect-fleet":
		pl := c.t.begin("fleet.plan")
		shards := fleet.PlanDM(dir, raw, c.grid.Trials(), fleet.SearchSpec{Threshold: searchThresh, ZeroDM: true}, fleetShards)
		c.t.end(pl)
		w0 := c.wire()
		run := c.t.begin("fleet.run")
		stats, _, err = c.coord.Run(ctx, shards, seg.onEvents, fleet.RunOptions{})
		run.set("wire_bytes", float64(c.wire()-w0))
		c.t.end(run)
		// The search ran inside the shards; its counts come back folded.
		setSearch(run, stats, int64(len(raw)))
	case "detect-stream":
		sp := c.t.begin("sps.search")
		stats, err = sps.SearchBlocks(ctx, hdr, body, c.searchConfig(c.exec, streamBlock), seg.onEvents)
		c.t.end(sp)
		setSearch(sp, stats, int64(len(raw)))
	default:
		sp := c.t.begin("sps.search")
		var events []spe.SPE
		events, stats, err = sps.Search(ctx, fb, c.searchConfig(c.exec, 0))
		c.t.end(sp)
		setSearch(sp, stats, int64(len(raw)))
		if err == nil {
			err = seg.onEvents(events)
		}
	}
	if err == nil {
		err = seg.finish()
	}
	if err != nil {
		return nil, err
	}
	rk := c.t.begin("sift.rank")
	sift.SortGroups(seg.groups)
	sources := sift.Sources(seg.groups, sift.Params{})
	rk.set("groups", float64(len(seg.groups)))
	rk.set("sources", float64(len(sources)))
	c.t.end(rk)
	return seg, nil
}

func setSearch(sp *span, st sps.Stats, bytes int64) {
	sp.set("bytes", float64(bytes))
	sp.set("trials", float64(st.Trials))
	sp.set("samples", float64(st.Samples))
	sp.set("events", float64(st.Events))
	for name, s := range st.StageSeconds {
		sp.set("stage."+name+"_s", s)
	}
}

// segments is the engine's detect segmenter, rebuilt from outside: events
// are cut at quiet gaps (or held for one flush when single), and each
// segment is clustered, uploaded, sifted and identified.
type segments struct {
	c      *composer
	rctx   *rdd.Context
	dir    string
	params core.Params
	feat   features.Config
	single bool

	pending  []spe.SPE
	seg      int
	clusters int
	prev     rdd.Metrics
	groups   []sift.Group
	preps    [][2][]string
	mu       sync.Mutex
	recs     []pipeline.MLRecord
}

// The engine's segmentation constants (DESIGN.md §7.3).
const (
	segGapSec    = 0.25
	segMaxEvents = 1 << 14
)

func (s *segments) onEvents(events []spe.SPE) error {
	s.pending = append(s.pending, events...)
	if s.single {
		return nil
	}
	cut := 0
	for i := 1; i < len(s.pending); i++ {
		if s.pending[i].Time-s.pending[i-1].Time > segGapSec {
			cut = i
		}
	}
	if cut == 0 && len(s.pending) >= segMaxEvents {
		cut = len(s.pending)
	}
	if cut == 0 {
		return nil
	}
	return s.flush(cut)
}

func (s *segments) finish() error {
	if len(s.pending) > 0 || s.seg == 0 {
		return s.flush(len(s.pending))
	}
	return nil
}

func (s *segments) flush(n int) error {
	if n == 0 && s.seg > 0 {
		return nil
	}
	s.seg++
	t := s.c.t
	dir := fmt.Sprintf("%s/seg-%d", s.dir, s.seg)
	events := s.pending[:n]
	obs := []spe.Observation{{Key: s.c.key, Events: events}}

	cl := t.begin("dbscan.cluster")
	prep := pipeline.Prepare(obs, s.c.grid, dbscan.DefaultParams())
	cl.set("events", float64(n))
	cl.set("clusters", float64(prep.NumClusters()))
	t.end(cl)
	base := s.clusters
	s.clusters += prep.NumClusters()

	up := t.begin("hdfs.upload")
	err := prep.Upload(s.c.fs, dir+"/spe.csv", dir+"/clusters.csv")
	up.set("bytes", float64(linesBytes(prep.DataLines)+linesBytes(prep.ClusterLines)))
	t.end(up)
	if err != nil {
		return err
	}

	sb := t.begin("sift.build")
	res := prep.Results[0]
	for c := range res.Members {
		s.groups = append(s.groups, sift.Build(base+c, s.c.key, res.MemberEvents(c, events), sift.Params{}))
	}
	sb.set("groups", float64(len(res.Members)))
	t.end(sb)

	sp := t.begin("pipeline.identify")
	jr, err := pipeline.RunDRAPID(s.rctx, pipeline.JobConfig{
		DataFile: dir + "/spe.csv", ClusterFile: dir + "/clusters.csv",
		OutDir: fmt.Sprintf("%s/ml/seg-%d", s.dir, s.seg), PartitionsPerCore: 32,
		Params: s.params, Feat: s.feat,
		Emit: func(rs []pipeline.MLRecord) {
			s.mu.Lock()
			for _, r := range rs {
				r.ClusterID += base
				s.recs = append(s.recs, r)
			}
			s.mu.Unlock()
		},
	})
	setPipeline(sp, jr, s.prev)
	t.end(sp)
	if err != nil {
		return err
	}
	s.prev = jr.Metrics
	s.preps = append(s.preps, [2][]string{prep.DataLines, prep.ClusterLines})
	s.pending = append(s.pending[:0], s.pending[n:]...)
	return nil
}

func linesBytes(ls []string) int64 {
	var n int64
	for _, l := range ls {
		n += int64(len(l)) + 1
	}
	return n
}
