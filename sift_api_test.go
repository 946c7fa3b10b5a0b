package drapid_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"drapid"
)

// siftSynthSpec is the ground-truthed sifting fixture: a repeating source
// (three pulses at DM 85), four one-off pulses, and two broadband RFI
// bursts. The zero-DM filter is disabled by the tests that use it, so the
// bursts survive to the clustering stage and must be pushed down the
// ranking by the sifter rather than filtered out upstream.
func siftSynthSpec() drapid.SynthSpec {
	return drapid.SynthSpec{
		NChans: 128, NSamples: 16384, TsampSec: 256e-6,
		Fch1MHz: 1500, FoffMHz: -2,
		SourceName: "SIFTTEST",
		Seed:       31,
		Trains: []drapid.PulseTrain{
			{StartSec: 0.40, PeriodSec: 1.1, Count: 3, DM: 85, WidthMs: 3, SNR: 15},
		},
		Pulses: []drapid.InjectedPulse{
			{TimeSec: 0.90, DM: 30, WidthMs: 2, SNR: 18},
			{TimeSec: 1.95, DM: 140, WidthMs: 4, SNR: 14},
			{TimeSec: 2.85, DM: 196, WidthMs: 3, SNR: 20},
			{TimeSec: 3.35, DM: 250, WidthMs: 5, SNR: 13},
		},
		RFI: []drapid.RFIBurst{
			{TimeSec: 1.40, WidthMs: 4, Amp: 2.5},
			{TimeSec: 3.80, WidthMs: 6, Amp: 2},
		},
	}
}

// siftInjected flattens the fixture's ground truth to (time, dm) pairs.
func siftInjected(spec drapid.SynthSpec) []drapid.InjectedPulse {
	var out []drapid.InjectedPulse
	out = append(out, spec.Pulses...)
	for _, tr := range spec.Trains {
		out = append(out, tr.Pulses()...)
	}
	return out
}

// TestDetectJobTopRecall is the sifting acceptance gate: every injected
// pulse must appear in the top-K ranked candidates (K = twice the injected
// count), and every surviving RFI group must rank strictly below every
// matched real pulse — in both the batch and the block-streaming mode.
// The repeating source must also come back as one cross-matched Source
// with all three detections, carrying its catalog name.
func TestDetectJobTopRecall(t *testing.T) {
	spec := siftSynthSpec()
	injected := siftInjected(spec)
	k := 2 * len(injected)
	catalog := "# name,dm,period_s\nFAKE-PSR,85.0,1.1\n"
	for _, mode := range []struct {
		name  string
		block int
	}{
		{"batch", 0},
		{"streaming", 4096},
	} {
		t.Run(mode.name, func(t *testing.T) {
			engine, err := drapid.New()
			if err != nil {
				t.Fatal(err)
			}
			defer engine.Close()
			job, err := engine.SubmitDetect(context.Background(), drapid.DetectJob{
				Synth:        &spec,
				Threshold:    6.5,
				NoZeroDM:     true, // let the RFI bursts through to the ranking
				BlockSamples: mode.block,
				Sift:         drapid.Sift{Top: k, Catalog: catalog},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := job.Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.TopCandidates) == 0 {
				t.Fatal("no ranked candidates")
			}
			if len(res.TopCandidates) > k {
				t.Fatalf("TopCandidates has %d entries, Sift.Top = %d", len(res.TopCandidates), k)
			}

			// Every injected pulse must be matched by a top-K entry, and the
			// lowest-scoring match must still outrank the best RFI entry.
			worstPulse := math.Inf(1)
			for _, p := range injected {
				found := false
				for _, c := range res.TopCandidates {
					if c.Rank != "rfi" && math.Abs(c.DM-p.DM) <= 6 && math.Abs(c.Time-p.TimeSec) <= 0.1 {
						worstPulse = min(worstPulse, c.Score)
						found = true
						break
					}
				}
				if !found {
					t.Errorf("injected pulse t=%gs dm=%g missing from top %d", p.TimeSec, p.DM, k)
				}
			}
			sawRFI := false
			for _, c := range res.TopCandidates {
				if c.Rank == "rfi" {
					sawRFI = true
					if c.Score >= worstPulse {
						t.Errorf("RFI group (score %.2f) does not rank strictly below all real pulses (worst %.2f)", c.Score, worstPulse)
					}
				}
			}
			if !sawRFI {
				t.Error("no RFI group survived to the ranking; the fixture should produce one")
			}

			// The three-pulse train folds into one source, catalog-matched.
			var train *drapid.Source
			for i := range res.Sources {
				if math.Abs(res.Sources[i].DM-85) <= 4 {
					train = &res.Sources[i]
					break
				}
			}
			if train == nil {
				t.Fatalf("no source near DM 85 (sources: %+v)", res.Sources)
			}
			if train.Detections != 3 {
				t.Errorf("train source has %d detections, want 3", train.Detections)
			}
			if train.Known != "FAKE-PSR" {
				t.Errorf("train source Known = %q, want the catalog match", train.Known)
			}
			if train.BestSNR <= 0 || len(train.Groups) != train.Detections {
				t.Errorf("malformed source: %+v", train)
			}

			// The mid-run snapshot view agrees with the final result.
			view := job.Top(k)
			if !reflect.DeepEqual(view.Top, res.TopCandidates) {
				t.Error("Job.Top after completion differs from Result.TopCandidates")
			}
			if !reflect.DeepEqual(view.Sources, res.Sources) {
				t.Error("Job.Top sources differ from Result.Sources")
			}
		})
	}
}

// TestTopRankedBatchStreamEquivalence is the PR's headline invariant: the
// ranked sifted output — candidates and sources — must be record-for-record
// identical between the whole-file batch path and the block-streaming path,
// for every tested block size and worker count, under the default
// NormWindow both modes share.
func TestTopRankedBatchStreamEquivalence(t *testing.T) {
	spec := siftSynthSpec()
	run := func(workers, block int) (drapid.Result, error) {
		engine, err := drapid.New(drapid.WithWorkers(workers))
		if err != nil {
			return drapid.Result{}, err
		}
		defer engine.Close()
		job, err := engine.SubmitDetect(context.Background(), drapid.DetectJob{
			Synth:        &spec,
			Threshold:    6.5,
			NoZeroDM:     true,
			BlockSamples: block,
			Sift:         drapid.Sift{Top: 50},
		})
		if err != nil {
			return drapid.Result{}, err
		}
		return job.Wait(context.Background())
	}

	ref, err := run(0, 0) // batch at default pool width
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.TopCandidates) == 0 || len(ref.Sources) == 0 {
		t.Fatalf("batch reference is empty: %d candidates, %d sources", len(ref.TopCandidates), len(ref.Sources))
	}
	for _, workers := range []int{1, 4} {
		for _, block := range []int{2048, 4096} {
			t.Run(fmt.Sprintf("workers=%d/block=%d", workers, block), func(t *testing.T) {
				got, err := run(workers, block)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.TopCandidates, ref.TopCandidates) {
					t.Errorf("ranked candidates diverge from batch:\nbatch:  %+v\nstream: %+v", ref.TopCandidates, got.TopCandidates)
				}
				if !reflect.DeepEqual(got.Sources, ref.Sources) {
					t.Errorf("sources diverge from batch:\nbatch:  %+v\nstream: %+v", ref.Sources, got.Sources)
				}
			})
		}
	}
}

// TestDetectJobSiftDisabled pins the opt-out: Sift.Disable leaves the
// ranked views empty without touching the candidate stream.
func TestDetectJobSiftDisabled(t *testing.T) {
	engine, err := drapid.New()
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	spec := siftSynthSpec()
	job, err := engine.SubmitDetect(context.Background(), drapid.DetectJob{
		Synth:     &spec,
		Threshold: 6.5,
		Sift:      drapid.Sift{Disable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Records == 0 {
		t.Fatal("no candidates with sifting disabled")
	}
	if len(res.TopCandidates) != 0 || len(res.Sources) != 0 {
		t.Fatalf("disabled sifting still produced %d candidates, %d sources", len(res.TopCandidates), len(res.Sources))
	}
	if view := job.Top(10); len(view.Top) != 0 || len(view.Sources) != 0 {
		t.Fatal("Job.Top non-empty with sifting disabled")
	}
}

// TestDetectJobSiftValidation rejects bad sift configurations at
// submission.
func TestDetectJobSiftValidation(t *testing.T) {
	engine, err := drapid.New()
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	synth := &drapid.SynthSpec{NChans: 8, NSamples: 64}
	cases := map[string]drapid.Sift{
		"negative top":     {Top: -1},
		"bad catalog":      {Catalog: "name-only-no-dm"},
		"negative min snr": {MinSNR: -3},
	}
	for name, sift := range cases {
		if _, err := engine.SubmitDetect(context.Background(), drapid.DetectJob{Synth: synth, Sift: sift}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A catalog error carries its line number.
	_, err = engine.SubmitDetect(context.Background(), drapid.DetectJob{
		Synth: synth,
		Sift:  drapid.Sift{Catalog: "ok,10,1\nbroken"},
	})
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("catalog error lacks line number: %v", err)
	}
}
