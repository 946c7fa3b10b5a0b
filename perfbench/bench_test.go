package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"drapid"
)

// benchmarkFile is the part of BENCHMARK.json the tests hold the
// benchmark to.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// lastLines runs one benchmark run and decodes its stamp and result.
func lastLines(t *testing.T, cfg runConfig) (int, stamp, result) {
	t.Helper()
	var out bytes.Buffer
	code := run(cfg, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("exit %d, output %q: want a stamp and a result line", code, out.String())
	}
	var st stamp
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &st); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return code, st, res
}

func TestSameSeedSameInputs(t *testing.T) {
	sums := func(workload string, seed int64) string {
		ins := newInputs(workload, seed)
		for i := 0; i < 2; i++ {
			if _, err := ins.get(i); err != nil {
				t.Fatal(err)
			}
		}
		return ins.dg.sum()
	}
	for _, w := range []string{"detect-batch", "identify"} {
		a, b := sums(w, 7), sums(w, 7)
		if a != b {
			t.Errorf("%s: seed 7 digests differ: %s vs %s", w, a, b)
		}
		if c := sums(w, 8); c == a {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", w)
		}
	}
	// Regenerating an input (the checks do) must give the same bytes.
	o1, err := genObservation(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := genObservation(7, 3)
	if !bytes.Equal(o1.raw, o2.raw) {
		t.Error("observation 3 of seed 7 regenerated differently")
	}
}

// TestTracedCompositionMatchesEngine runs a tiny observation (and a tiny
// identify input) through the engine and through the traced
// composition of its layers: the records must be identical.
func TestTracedCompositionMatchesEngine(t *testing.T) {
	spec := drapid.SynthSpec{
		NChans: 64, NSamples: 1 << 15, TsampSec: obsTsamp, Fch1MHz: obsFch1, FoffMHz: obsFoff, Seed: 5,
		Pulses: []drapid.InjectedPulse{
			{TimeSec: 0.8, DM: 60, WidthMs: 3, SNR: 18},
			{TimeSec: 3.1, DM: 220, WidthMs: 2, SNR: 15},
			{TimeSec: 5.5, DM: 410, WidthMs: 5, SNR: 20},
		},
		RFI: []drapid.RFIBurst{{TimeSec: 2.2, WidthMs: 3, Amp: 3}},
	}
	raw, err := drapid.GenerateFilterbank(spec)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]input{
		"detect-batch":  {obs: &observation{spec: spec, raw: raw}},
		"detect-stream": {obs: &observation{spec: spec, raw: raw}},
		"detect-fleet":  {obs: &observation{spec: spec, raw: raw}},
		"identify":      {ident: genIdentify(5, 0)},
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			in := cases[w]
			e, err := newEnv(w)
			if err != nil {
				t.Fatal(err)
			}
			defer e.close()
			out, err := runJob(e, submitter(w, in))
			if err != nil {
				t.Fatal(err)
			}
			if len(out.lines) == 0 {
				t.Fatal("the engine produced no candidates")
			}
			tr := newTracer()
			comp, err := newComposer(w, tr)
			if err != nil {
				t.Fatal(err)
			}
			defer comp.close()
			lines, err := comp.run(in, true)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(lines, out.lines) {
				t.Fatalf("composition gave %d records, the engine %d", len(lines), len(out.lines))
			}
			m := tr.layerMetrics(-1, tr.self())
			if m["pipeline.records"] != float64(len(lines)) {
				t.Errorf("pipeline.records = %g, want %d", m["pipeline.records"], len(lines))
			}
			if in.obs != nil && m["sps.trials"] != searchDMMax/searchDMStep+1 {
				t.Errorf("sps.trials = %g", m["sps.trials"])
			}
		})
	}
}

// TestSmokeEmitsEveryMetric holds both modes to BENCHMARK.json: every
// end-to-end and per-layer metric is printed with its declared unit.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i])
		}
	}
	check := func(res result, want []struct{ Name, Unit string }) {
		t.Helper()
		if len(res.Metrics) != len(want) {
			t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok {
				t.Errorf("metric %s not printed", m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("metric %s: unit %q, BENCHMARK.json %q", m.Name, got.Unit, m.Unit)
			}
		}
	}
	cfg := runConfig{workload: "detect-fleet", seed: 3, seconds: 0.1, minRecall: 0.90, spansDir: t.TempDir()}
	code, st, res := lastLines(t, cfg)
	if code != 0 || !res.Correct || res.Attempted == 0 || res.Failed != 0 {
		t.Fatalf("e2e run: exit %d, %+v, failures %v", code, res, st.Failures)
	}
	if st.InputsSHA256 == "" || st.Host.NProc == 0 || st.Host.GoVersion == "" {
		t.Errorf("stamp lacks the input digest or host fingerprint: %+v", st)
	}
	check(res, f.EndToEnd)
	for _, m := range f.EndToEnd {
		if res.Metrics[m.Name].Value <= 0 {
			t.Errorf("end-to-end metric %s = %g, want > 0", m.Name, res.Metrics[m.Name].Value)
		}
	}

	cfg.trace = true
	code, st, res = lastLines(t, cfg)
	if code != 0 || !res.Correct {
		t.Fatalf("traced run: exit %d, %+v, failures %v", code, res, st.Failures)
	}
	check(res, f.PerLayer)
	if len(perLayer) != len(f.PerLayer) {
		t.Fatalf("benchmark lists %d per-layer metrics, BENCHMARK.json %d", len(perLayer), len(f.PerLayer))
	}
	for i, m := range f.PerLayer {
		if perLayer[i].name != m.Name {
			t.Errorf("per-layer metric %d: benchmark %s, BENCHMARK.json %s", i, perLayer[i].name, m.Name)
		}
	}
}

// TestFailingCheckExitsNonZero raises the recall floor past 1, which no
// job can meet: the run must report it and exit non-zero.
func TestFailingCheckExitsNonZero(t *testing.T) {
	code, st, res := lastLines(t, runConfig{workload: "detect-batch", seed: 3, seconds: 0.1, minRecall: 1.01})
	if code == 0 || res.Correct || res.Failed == 0 || len(st.Failures) == 0 {
		t.Fatalf("exit %d, %+v, failures %v: want a failed check and a non-zero exit", code, res, st.Failures)
	}
}
