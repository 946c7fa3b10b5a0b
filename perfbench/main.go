// Command perfbench is the repository's end-to-end benchmark. It drives
// four workloads through the public drapid API (New, SubmitDetect/Submit,
// Results, Wait), checks every output against an oracle, and prints one
// JSON result line. With --trace 1 it instead composes the same work from
// the internal layers' public functions, timing each call from outside,
// and prints per-layer metrics. See README.md in this directory.
//
//	bash perfbench/run.sh --workload detect-batch --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
)

// workloads names every workload, in the order BENCHMARK.json lists them.
var workloads = []string{"detect-batch", "detect-stream", "detect-fleet", "identify"}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp is printed on the line before the result: what ran, on what host,
// over which input bytes, and the engine's own per-stage seconds.
type stamp struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      float64            `json:"seconds"`
	Trace        bool               `json:"trace"`
	Host         host               `json:"host"`
	InputsSHA256 string             `json:"inputs_sha256"`
	Jobs         int                `json:"jobs"`
	JobSeconds   []float64          `json:"job_seconds,omitempty"`
	EngineStages map[string]float64 `json:"engine_stages,omitempty"`
	Failures     []string           `json:"failures,omitempty"`
	// KnownDefects counts deviations the checks surface without failing
	// the run; see README.md.
	KnownDefects map[string]int `json:"known_defects,omitempty"`
}

// host is the fingerprint that lets two results be compared only when
// they come from the same machine and code.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func fingerprint() host {
	h := host{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			h.Commit += "+dirty"
		}
	}
	return h
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed    = flag.Int64("seed", 1, "input seed: the same seed generates the same inputs")
		seconds = flag.Float64("seconds", 12, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics through the engine; 1: per-layer metrics from a traced run, spans written to .bench_build/spans")
	)
	flag.Parse()
	if !slices.Contains(workloads, *name) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloads, ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	os.Exit(run(runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, spansDir: ".bench_build/spans", minRecall: 0.90}, os.Stdout))
}

// run executes one benchmark run and prints its stamp and result lines
// to stdout. It returns the process exit code: 1 when the run could not
// finish or a correctness check failed.
func run(cfg runConfig, stdout io.Writer) int {
	var (
		res result
		st  stamp
		err error
	)
	if cfg.trace {
		res, st, err = runTraced(cfg)
	} else {
		res, st, err = runE2E(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	st.Workload, st.Seed, st.Seconds, st.Trace, st.Host = cfg.workload, cfg.seed, cfg.seconds, cfg.trace, fingerprint()
	for _, f := range st.Failures {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
	}
	for _, v := range []any{st, res} {
		b, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: encoding output: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runConfig is what every mode receives from the command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
	// minRecall is the recall every detect job must reach.
	minRecall float64
}

// median returns the middle value of xs (the mean of the middle two for
// an even count); zero for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
