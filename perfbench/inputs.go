package main

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"strings"

	"drapid"
	"drapid/internal/dbscan"
	"drapid/internal/pipeline"
	"drapid/internal/spe"
	"drapid/internal/synth"
)

// Detect observation geometry, shared by the three detect workloads: 256
// channels × 65 536 samples of 256 µs (16.8 s, 64 MiB of float32 SIGPROC)
// below a 1500 MHz top with −1 MHz channels.
const (
	obsChans     = 256
	obsSamples   = 1 << 16
	obsTsamp     = 256e-6
	obsFch1      = 1500.0
	obsFoff      = -1.0
	obsPulses    = 24
	obsKey       = "BENCH:58000.0000:0.0000:0.0000:0"
	searchDMMax  = 500
	searchDMStep = 1
	searchThresh = 6.5
	streamBlock  = 16384
	fleetShards  = 2
	identifyObs  = 24
	identifyTobs = 30
)

// observation is one generated detect input with its ground truth.
type observation struct {
	spec drapid.SynthSpec
	raw  []byte
}

// identifyInput is the generated IdentifyJob input with its ground truth.
type identifyInput struct {
	data, clusters []string
	truth          map[string][]synth.Injection // by observation key
	bytes          int64                        // CSV line bytes, newlines included
}

// mix derives an independent stream seed from the run seed, so every
// observation of a run is distinct and reproducible from --seed alone.
func mix(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z ^= z >> 31
	z *= 0x94D049BB133111EB
	z ^= z >> 29
	return int64(z >> 1)
}

// detectSpec is observation i of a run: Gaussian noise, 24 dispersed
// pulses (DM 10–490, SNR 10–25, width 1–7 ms) and two broadband RFI
// bursts. Each pulse sits at a random time inside its own slot of the
// observation, so no two pulses share a DBSCAN neighbourhood. DM, SNR and
// width are each stratified: every observation holds one value from each
// 24th of each range, paired at random, so every observation carries the
// same mix of easy and hard pulses and runs differ by pairing alone.
func detectSpec(seed int64, i int) drapid.SynthSpec {
	s := mix(seed, i)
	rng := rand.New(rand.NewSource(s))
	spec := drapid.SynthSpec{
		NChans: obsChans, NSamples: obsSamples, TsampSec: obsTsamp,
		Fch1MHz: obsFch1, FoffMHz: obsFoff,
		SourceName: "BENCH", Seed: s,
	}
	strata := func(lo, hi float64) []float64 {
		out := make([]float64, obsPulses)
		for k, p := range rng.Perm(obsPulses) {
			out[k] = lo + (hi-lo)*(float64(p)+rng.Float64())/obsPulses
		}
		return out
	}
	dms, snrs, widths := strata(10, 490), strata(10, 25), strata(1, 7)
	// The last pulse must leave room for the DM 490 sweep (0.41 s).
	const lead, tail = 0.3, 0.8
	slot := (float64(obsSamples)*obsTsamp - lead - tail) / obsPulses
	for p := 0; p < obsPulses; p++ {
		spec.Pulses = append(spec.Pulses, drapid.InjectedPulse{
			TimeSec: lead + float64(p)*slot + 0.1*slot + rng.Float64()*0.6*slot,
			DM:      dms[p],
			WidthMs: widths[p],
			SNR:     snrs[p],
		})
	}
	for b := 0; b < 2; b++ {
		spec.RFI = append(spec.RFI, drapid.RFIBurst{
			TimeSec: lead + rng.Float64()*(float64(obsSamples)*obsTsamp-lead-tail),
			WidthMs: 2 + rng.Float64()*4,
			Amp:     3,
		})
	}
	return spec
}

// genObservation renders observation i of a run to SIGPROC bytes.
func genObservation(seed int64, i int) (observation, error) {
	spec := detectSpec(seed, i)
	raw, err := drapid.GenerateFilterbank(spec)
	if err != nil {
		return observation{}, err
	}
	return observation{spec: spec, raw: raw}, nil
}

// quantilePulsar is source j of identifyObs: each parameter at the
// midpoint of its j-th quantile stratum under synth.RandomPulsar's
// distributions (AnyBand, AnyBrightness), strata paired by strides
// coprime with identifyObs so no parameter moves in step with another.
func quantilePulsar(j int, rrat bool) synth.Pulsar {
	q := func(stride int) float64 { return (float64(j*stride%identifyObs) + 0.5) / identifyObs }
	normal := func(p float64) float64 { return math.Sqrt2 * math.Erfinv(2*p-1) }
	var dm float64
	switch r := q(5); {
	case r < 0.45:
		dm = 5 + r/0.45*90
	case r < 0.70:
		dm = 100 + (r-0.45)/0.25*75
	default:
		dm = 175 + (r-0.70)/0.30*325
	}
	p := synth.Pulsar{
		PeriodSec: 0.05 + q(1)*2.5,
		DM:        dm,
		WidthMs:   math.Exp(normal(q(11))*0.6 + 1.1),
		PeakSNR:   math.Max(6.5, math.Exp(normal(q(7))*0.6+2.4)),
		Sporadic:  1,
	}
	if rrat {
		p.RRAT = true
		p.PeriodSec = 0.5 + q(13)*4
		p.Sporadic = 0.01 + q(17)*0.09
		if p.PeakSNR < 10 {
			p.PeakSNR = 10 + q(19)*15
		}
	}
	return p
}

// minClusterEvents is the fewest events DBSCAN makes a cluster of.
var minClusterEvents = dbscan.DefaultParams().MinPts

// genIdentify builds identify input i of a run: 24 PALFA synth
// observations of 30 s, each with 500 noise events, 4 RFI signals, one
// pulsar and, in one observation of five, an RRAT, clustered by the
// stage-2 DBSCAN into the two CSV inputs of an IdentifyJob, as cmd/spgen
// builds them. The job's cost is set by its brightest, fastest pulsars
// (an observation's cost grows with its clusters times its events), and
// free draws of the population swing it by half from seed to seed. So the
// sources are the population's quantiles instead: source j takes the
// midpoint of the j-th 24th of each parameter's distribution (that of
// synth.RandomPulsar), the parameters paired by fixed strides. The seed
// moves everything else: pulse phases, per-pulse brightness, the events
// of every pulse, the RFI and the noise.
func genIdentify(seed int64, i int) *identifyInput {
	sv := synth.PALFA()
	sv.TobsSec = identifyTobs
	gen := synth.NewGenerator(sv, mix(seed, i))
	in := &identifyInput{truth: make(map[string][]synth.Injection)}
	var obs []spe.Observation
	for j := 0; j < identifyObs; j++ {
		m := synth.Sources{NumImpulseRFI: 2, NumFlatRFI: 2, NumNoise: 500}
		m.Pulsars = append(m.Pulsars, quantilePulsar(j, false))
		if j%5 == 2 {
			m.Pulsars = append(m.Pulsars, quantilePulsar(j, true))
		}
		o, truth := gen.Observe(gen.NextKey(), m)
		obs = append(obs, o)
		in.truth[o.Key.String()] = truth
	}
	prep := pipeline.Prepare(obs, sv.Grid, dbscan.DefaultParams())
	in.data, in.clusters = prep.DataLines, prep.ClusterLines
	for _, lines := range [][]string{in.data, in.clusters} {
		for _, l := range lines {
			in.bytes += int64(len(l)) + 1
		}
	}
	return in
}

// digest accumulates the SHA-256 of every input a run generates, so two
// runs can prove they measured the same bytes.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) bytes(b []byte) { d.h.Write(b) }

func (d *digest) lines(ls []string) {
	d.h.Write([]byte(strings.Join(ls, "\n")))
	d.h.Write([]byte{'\n'})
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
