package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// perLayer lists every per-layer metric the traced run prints, in the
// order BENCHMARK.json lists them. A layer the workload's path does not
// reach reports 0 (the sps layer on identify, the fleet layer off
// detect-fleet).
var perLayer = []struct{ name, unit string }{
	{"sps.read_s", "s"}, {"sps.read_mb", "MB"},
	{"sps.search_s", "s"}, {"sps.search_mb_s", "MB/s"}, {"sps.search_alloc_mb", "MB"},
	{"sps.trials", "count"}, {"sps.samples", "count"}, {"sps.events", "count"},
	{"sps.zerodm_s", "s"}, {"sps.dedisperse_s", "s"}, {"sps.normalise_s", "s"}, {"sps.boxcar_s", "s"},
	{"sps.search_1w_s", "s"},
	{"dbscan.cluster_s", "s"}, {"dbscan.clusters", "count"},
	{"hdfs.upload_s", "s"}, {"hdfs.upload_mb", "MB"},
	{"pipeline.identify_s", "s"}, {"pipeline.records", "count"}, {"pipeline.tasks", "count"}, {"pipeline.shuffle_mb", "MB"},
	{"core.keygroup_busy_s", "s"}, {"core.keygroups", "count"}, {"rapidmt.run_1t_s", "s"},
	{"sift.build_s", "s"}, {"sift.groups", "count"}, {"sift.sources", "count"},
	{"fleet.plan_s", "s"}, {"fleet.run_s", "s"}, {"fleet.wire_mb", "MB"},
	{"fleet.shard_busy_s", "s"}, {"fleet.shard_max_s", "s"}, {"fleet.dispatch_wait_s", "s"},
	{"engine.submit_s", "s"}, {"engine.overhead_s", "s"},
	{"engine.stage.ingest_s", "s"}, {"engine.stage.zerodm_s", "s"}, {"engine.stage.dedisperse_s", "s"},
	{"engine.stage.normalise_s", "s"}, {"engine.stage.boxcar_s", "s"}, {"engine.stage.cluster_s", "s"},
	{"engine.stage.classify_s", "s"}, {"engine.stage.sift_s", "s"},
}

// layerMetrics reduces one iteration's spans to the per-layer metrics:
// seconds are self times summed over the layer's spans, counts are summed.
func (t *tracer) layerMetrics(iter int, self map[int]float64) map[string]float64 {
	selfS := map[string]float64{}
	dur := map[string]float64{}
	maxDur := map[string]float64{}
	cnt := map[string]map[string]float64{}
	selfAlloc := map[int]float64{}
	for _, s := range t.spans {
		selfAlloc[s.ID] += s.Counts["alloc_bytes"]
		if s.Parent != 0 {
			selfAlloc[s.Parent] -= s.Counts["alloc_bytes"]
		}
	}
	allocOf := map[string]float64{}
	for _, s := range t.spans {
		if s.Iter != iter {
			continue
		}
		selfS[s.Name] += self[s.ID]
		dur[s.Name] += s.dur()
		maxDur[s.Name] = max(maxDur[s.Name], s.dur())
		allocOf[s.Name] += selfAlloc[s.ID]
		if cnt[s.Name] == nil {
			cnt[s.Name] = map[string]float64{}
		}
		for k, v := range s.Counts {
			cnt[s.Name][k] += v
		}
	}
	m := map[string]float64{
		"sps.read_s":           selfS["sps.read"],
		"sps.read_mb":          cnt["sps.read"]["bytes"] / 1e6,
		"sps.search_s":         selfS["sps.search"],
		"sps.search_alloc_mb":  allocOf["sps.search"] / 1e6,
		"dbscan.cluster_s":     selfS["dbscan.cluster"],
		"dbscan.clusters":      cnt["dbscan.cluster"]["clusters"],
		"hdfs.upload_s":        selfS["hdfs.upload"],
		"hdfs.upload_mb":       cnt["hdfs.upload"]["bytes"] / 1e6,
		"pipeline.identify_s":  selfS["pipeline.identify"],
		"pipeline.records":     cnt["pipeline.identify"]["records"],
		"pipeline.tasks":       cnt["pipeline.identify"]["tasks"],
		"pipeline.shuffle_mb":  cnt["pipeline.identify"]["shuffle_bytes"] / 1e6,
		"core.keygroup_busy_s": selfS["core.keygroups"],
		"core.keygroups":       cnt["core.keygroups"]["keygroups"],
		"sift.build_s":         selfS["sift.build"] + selfS["sift.rank"],
		"sift.groups":          cnt["sift.rank"]["groups"],
		"sift.sources":         cnt["sift.rank"]["sources"],
		"fleet.plan_s":         selfS["fleet.plan"],
		"fleet.run_s":          dur["fleet.run"],
		"fleet.wire_mb":        cnt["fleet.run"]["wire_bytes"] / 1e6,
		"fleet.shard_busy_s":   dur["fleet.shard"],
		"fleet.shard_max_s":    maxDur["fleet.shard"],
	}
	if dur["fleet.run"] > 0 {
		m["fleet.dispatch_wait_s"] = dur["fleet.run"] - maxDur["fleet.shard"]
	}
	if m["sps.search_s"] > 0 {
		m["sps.search_mb_s"] = cnt["sps.search"]["bytes"] / 1e6 / m["sps.search_s"]
	}
	// The search counts sit on the search span, or on the fleet run span
	// when the shards searched.
	src := cnt["sps.search"]
	if src == nil {
		src = cnt["fleet.run"]
	}
	for _, k := range []string{"trials", "samples", "events"} {
		m["sps."+k] = src[k]
	}
	for _, k := range []string{"zerodm", "dedisperse", "normalise", "boxcar"} {
		m["sps."+k+"_s"] = src["stage."+k+"_s"]
	}
	// Single-threaded baselines run once per run.
	if _, ok := dur["rapidmt.run_1t"]; ok {
		m["rapidmt.run_1t_s"] = dur["rapidmt.run_1t"]
		if d, ok := dur["sps.search_1w"]; ok {
			m["sps.search_1w_s"] = d
		}
	}
	return m
}

// runTraced is the traced mode: the same inputs, each run once through
// the engine and once through the outside-in composition of its layers,
// for the configured seconds of job time. Each composed job's records
// must equal the engine's.
func runTraced(cfg runConfig) (result, stamp, error) {
	ins := newInputs(cfg.workload, cfg.seed)
	warm, err := ins.get(0)
	if err != nil {
		return result{}, stamp{}, err
	}
	e, err := newEnv(cfg.workload)
	if err != nil {
		return result{}, stamp{}, err
	}
	defer e.close()
	if _, err := runJob(e, submitter(cfg.workload, warm)); err != nil {
		return result{}, stamp{}, fmt.Errorf("warm-up job: %w", err)
	}
	t := newTracer()
	comp, err := newComposer(cfg.workload, t)
	if err != nil {
		return result{}, stamp{}, err
	}
	defer comp.close()
	if _, err := comp.run(warm, false); err != nil {
		return result{}, stamp{}, fmt.Errorf("traced warm-up: %w", err)
	}

	var (
		failed           []string
		engSecs, submits []float64
		stages           = map[string][]float64{}
		busy             float64
		iters            int
	)
	loopStart := time.Now()
	for k := 0; (busy < cfg.seconds || pairOpen(cfg.workload, k)) && time.Since(loopStart).Seconds() < 3*cfg.seconds+60; k++ {
		iters++
		in, err := ins.get(timedInput(cfg.workload, k))
		if err != nil {
			return result{}, stamp{}, err
		}
		out, err := runJob(e, submitter(cfg.workload, in))
		busy += out.secs
		if err != nil {
			failed = append(failed, fmt.Sprintf("engine job %d: %v", k, err))
			continue
		}
		engSecs, submits = append(engSecs, out.secs), append(submits, out.submitSecs)
		for name, s := range out.res.Stages {
			stages[name] = append(stages[name], s.WallSeconds)
		}
		t.mu.Lock()
		t.iter = k
		t.mu.Unlock()
		runtime.GC()
		n := len(t.spans)
		lines, err := comp.run(in, k == 0)
		busy += t.spans[n].dur() // the job span opens first
		if err != nil {
			failed = append(failed, fmt.Sprintf("traced job %d: %v", k, err))
			continue
		}
		if !slices.Equal(lines, out.lines) {
			failed = append(failed, fmt.Sprintf("traced job %d: %d records, the engine's %d", k, len(lines), len(out.lines)))
		}
	}

	self := t.self()
	perIter := map[string][]float64{}
	var traced []float64
	for k := 0; k < iters; k++ {
		for name, v := range t.layerMetrics(k, self) {
			perIter[name] = append(perIter[name], v)
		}
	}
	for _, s := range t.spans {
		if s.Name == "job" && s.Iter >= 0 {
			traced = append(traced, s.dur())
		}
	}
	metrics := map[string]metric{}
	for _, l := range perLayer {
		metrics[l.name] = metric{median(perIter[l.name]), l.unit}
	}
	set := func(name string, v float64) { metrics[name] = metric{v, metrics[name].Unit} }
	set("engine.submit_s", median(submits))
	set("engine.overhead_s", median(engSecs)-median(traced))
	st := stamp{InputsSHA256: ins.dg.sum(), Jobs: iters, Failures: failed}
	for name, v := range stages {
		set("engine.stage."+name+"_s", median(v))
	}
	if err := t.write(cfg.spansDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)); err != nil {
		return result{}, stamp{}, fmt.Errorf("writing spans: %w", err)
	}
	res := result{
		Correct:   len(failed) == 0,
		Attempted: iters,
		Failed:    min(len(failed), iters),
		Metrics:   metrics,
	}
	return res, st, nil
}
