package sps

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"drapid/internal/rdd"
	"drapid/internal/spe"
)

// This file is the streaming half of the search frontend (DESIGN.md §7):
// the same dedisperse → normalise → matched-filter pipeline as Search, but
// consuming the observation as fixed-size blocks with the dispersion
// overlap carried between them, so peak memory is bounded by the block
// size (plus the sweep and the normalisation window) no matter how long
// the observation runs. The contract is strict equivalence: for any block
// size and any worker count the emitted event stream is record-for-record
// identical to the batch path, because every kernel carries exactly the
// state the batch computation would have had at the block boundary —
// running prefix moments for Normalize, boxcar prefix sums and undecided
// scan positions for BoxcarDetect, and the overlap rows for the
// dedispersion kernels.

// DefaultNormWindow is the running-normalisation window (in samples) every
// search takes when Config.NormWindow is zero. Global moments would need
// the whole series, which neither bounded-memory streaming nor a time
// shard holds; one windowed default keeps batch, block streaming and both
// fleet shard axes searching the same normalised series.
const DefaultNormWindow = 2048

// NormWindowOrDefault resolves a configured normalisation window: zero (or
// negative) takes DefaultNormWindow. Every search driver resolves through
// it, as does the fleet's time-shard planner when sizing its overlap.
func NormWindowOrDefault(window int) int {
	if window <= 0 {
		return DefaultNormWindow
	}
	return window
}

// normStream is Normalize as an incremental state machine: it carries the
// running prefix sums of x and x² (accumulated in exactly the batch order,
// so the moments are bit-identical) plus rings of the last window+1 prefix
// values and raw samples — enough to emit sample i as soon as its centred
// window fits in the data seen so far, and to replay Normalize's
// end-clamped (or globally-clamped) windows at finish.
type normStream struct {
	window, half int
	n, next      int // samples fed / next sample to emit
	sum, sq      float64
	psum, psq    []float64 // prefix rings, indexed by absolute prefix index mod window+1
	raw          []float64 // raw-sample ring, same indexing
}

func newNormStream(window int) *normStream {
	m := window + 1
	return &normStream{
		window: window,
		half:   window / 2,
		psum:   make([]float64, m),
		psq:    make([]float64, m),
		raw:    make([]float64, m),
	}
}

// z normalises sample i over the window [lo, hi), exactly as Normalize.
func (ns *normStream) z(i, lo, hi int) float64 {
	m := ns.window + 1
	w := float64(hi - lo)
	mean := (ns.psum[hi%m] - ns.psum[lo%m]) / w
	variance := (ns.psq[hi%m]-ns.psq[lo%m])/w - mean*mean
	if variance < 1e-12 {
		variance = 1e-12
	}
	return (ns.raw[i%m] - mean) / math.Sqrt(variance)
}

// feed appends a series segment and appends every newly decidable
// normalised sample to out. Emission keeps pace with ingestion one sample
// at a time, so the rings never drop a value still in reach of an
// unemitted window.
func (ns *normStream) feed(x []float64, out []float64) []float64 {
	m := ns.window + 1
	for _, v := range x {
		ns.raw[ns.n%m] = v
		ns.sum += v
		ns.sq += v * v
		ns.n++
		ns.psum[ns.n%m] = ns.sum
		ns.psq[ns.n%m] = ns.sq
		for {
			lo := ns.next - ns.half
			if lo < 0 {
				lo = 0
			}
			if lo+ns.window > ns.n {
				break
			}
			out = append(out, ns.z(ns.next, lo, lo+ns.window))
			ns.next++
		}
	}
	return out
}

// finish flushes the tail with Normalize's end-clamped windows. A series
// shorter than the window emits everything here with the window clamped to
// the series — the batch path's global-moments degeneration — which is
// exact because nothing was emitted during feed and both rings still hold
// the whole series.
func (ns *normStream) finish(out []float64) []float64 {
	n := ns.n
	w := ns.window
	if w > n {
		w = n
	}
	half := w / 2
	for ; ns.next < n; ns.next++ {
		lo := ns.next - half
		if lo < 0 {
			lo = 0
		}
		hi := lo + w
		if hi > n {
			hi = n
			lo = hi - w
		}
		out = append(out, ns.z(ns.next, lo, hi))
	}
	return out
}

// rawScan is one boxcar width's scan state: the next undecided start
// position and the raw window sum at the position before it.
type rawScan struct {
	w         int
	oi        int // the width's index in the ladder's closure order
	rawThresh float64
	norm      float64
	next      int
	prev      float64
}

// boxStream is BoxcarDetect as an incremental state machine over the same
// BoxDIT ladder the batch detector runs (DESIGN.md §11). Each closure
// width keeps a contiguous buffer of window sums extended by the pairwise
// recurrence as z-samples arrive — identical arithmetic to
// boxLadder.compute over the whole series, so decisions (made on the raw
// sums against threshold·√w, exactly the batch basis) are bit-identical.
// Each requested width decides start position t once the sum at t+1 is
// computable; the cross-width overlap merge resolves lazily: candidates
// stay pending until their whole overlap chain lies behind every width's
// scan frontier, at which point chain-local merging equals the batch
// path's global mergeDetections (windows never overlap across chains, and
// the greedy best-first suppression never interacts across disjoint
// windows). Buffers compact to the oldest sum still reachable — by a
// future recurrence operand or an undecided scan — so per-trial state
// stays O(maxW + gulp), never O(observation).
type boxStream struct {
	threshold float64
	maxW      int // widest closure width
	lad       *boxLadder
	scans     []rawScan
	n         int         // absolute z-samples fed
	off       int         // absolute index of every buffer's first entry
	bufs      [][]float64 // per closure width: S_w from absolute index off (width 1: z itself)
	pending   []Detection
	out       []Detection
}

func newBoxStream(widths []int, threshold float64) *boxStream {
	lad := newBoxLadder(widths)
	bs := &boxStream{
		threshold: threshold,
		maxW:      lad.order[len(lad.order)-1],
		lad:       lad,
		bufs:      make([][]float64, len(lad.order)),
	}
	for _, w := range widths {
		bs.scans = append(bs.scans, rawScan{
			w: w, oi: lad.idx[w],
			rawThresh: threshold * math.Sqrt(float64(w)),
			norm:      1 / math.Sqrt(float64(w)),
		})
	}
	return bs
}

// sum reads S_w (closure index oi) at absolute start position t.
func (bs *boxStream) sum(oi, t int) float64 { return bs.bufs[oi][t-bs.off] }

// grow appends a z segment and extends every closure width's sums to the
// new frontier via the ladder recurrence. Evaluation walks the closure
// ascending, so both operands of S_w[t] = S_a[t] + S_b[t+a] exist by the
// time they are read: S_a reaches n−a ≥ n−w and S_b[t+a] needs
// t ≤ n−w exactly.
func (bs *boxStream) grow(z []float64) {
	bs.n += len(z)
	for oi, w := range bs.lad.order {
		if w == 1 {
			bs.bufs[oi] = append(bs.bufs[oi], z...)
			continue
		}
		a := bs.lad.splitA[oi]
		sa := bs.bufs[bs.lad.idx[a]]
		sb := bs.bufs[bs.lad.idx[bs.lad.splitB[oi]]]
		buf := bs.bufs[oi]
		for t := bs.off + len(buf); t <= bs.n-w; t++ {
			buf = append(buf, sa[t-bs.off]+sb[t+a-bs.off])
		}
		bs.bufs[oi] = buf
	}
}

// decide advances scan s by one start position, applying BoxcarDetect's
// local-maximum rule (or its end-of-series plateau rule when last) on the
// raw window sums.
func (bs *boxStream) decide(s *rawScan, last bool) {
	t := s.next
	cur := bs.sum(s.oi, t)
	prev := s.prev
	if t == 0 {
		prev = cur
	}
	if last {
		if cur >= s.rawThresh && cur >= prev {
			bs.pending = append(bs.pending, Detection{Start: t, Width: s.w, SNR: cur * s.norm})
		}
	} else if nxt := bs.sum(s.oi, t+1); cur >= s.rawThresh && cur >= prev && cur > nxt {
		bs.pending = append(bs.pending, Detection{Start: t, Width: s.w, SNR: cur * s.norm})
	}
	s.prev = cur
	s.next++
}

// feed appends normalised samples, advances every width's scan as far as
// the data allows, finalises the overlap chains that fell behind the
// frontier, and compacts the sum buffers.
func (bs *boxStream) feed(z []float64) {
	bs.grow(z)
	for i := range bs.scans {
		s := &bs.scans[i]
		for s.next+s.w+1 <= bs.n {
			bs.decide(s, false)
		}
	}
	bs.finalize(bs.frontier())
	bs.compact()
}

// finish decides the remaining positions of every width — including the
// end-of-series rule at the last one — and finalises everything.
func (bs *boxStream) finish() {
	for i := range bs.scans {
		s := &bs.scans[i]
		last := bs.n - s.w
		if last < 0 {
			continue // width longer than the series: the batch path skips it too
		}
		for s.next <= last {
			bs.decide(s, s.next == last)
		}
	}
	bs.finalize(math.MaxInt)
}

// compact drops every sum no longer reachable: the recurrence only reads
// operand positions ≥ n−maxW+1 from here on, and scans only positions ≥
// their frontier (each scan caches its own prev).
func (bs *boxStream) compact() {
	keep := bs.n - bs.maxW + 1
	if f := bs.frontier(); f < keep {
		keep = f
	}
	if keep <= bs.off {
		return
	}
	d := keep - bs.off
	for oi, buf := range bs.bufs {
		// Every buffer reaches at least n−w+1 ≥ keep entries past off, so
		// d never exceeds a buffer's length.
		copy(buf, buf[d:])
		bs.bufs[oi] = buf[:len(buf)-d]
	}
	bs.off = keep
}

// frontier is the earliest start position any width has yet to decide —
// the lower bound on every future candidate's window start.
func (bs *boxStream) frontier() int {
	f := math.MaxInt
	for i := range bs.scans {
		if bs.scans[i].next < f {
			f = bs.scans[i].next
		}
	}
	return f
}

// horizon is the lower bound on the start of any candidate not yet
// finalised — pending or future — which is what bounds this trial's next
// possible event centre.
func (bs *boxStream) horizon() int {
	h := bs.frontier()
	for i := range bs.pending {
		if bs.pending[i].Start < h {
			h = bs.pending[i].Start
		}
	}
	return h
}

// finalize merges and releases every maximal chain of overlapping pending
// windows that ends before frontier. Chains are disjoint intervals in
// ascending order, so their chain-end positions ascend and the finalizable
// ones form a prefix.
func (bs *boxStream) finalize(frontier int) {
	if len(bs.pending) == 0 {
		return
	}
	sort.Slice(bs.pending, func(i, j int) bool { return bs.pending[i].Start < bs.pending[j].Start })
	done := 0
	lo, maxEnd := 0, bs.pending[0].Start+bs.pending[0].Width
	for k := 1; k <= len(bs.pending); k++ {
		if k < len(bs.pending) && bs.pending[k].Start < maxEnd {
			if end := bs.pending[k].Start + bs.pending[k].Width; end > maxEnd {
				maxEnd = end
			}
			continue
		}
		if maxEnd > frontier {
			break
		}
		bs.out = append(bs.out, mergeDetections(bs.pending[lo:k])...)
		done = k
		if k < len(bs.pending) {
			lo, maxEnd = k, bs.pending[k].Start+bs.pending[k].Width
		}
	}
	bs.pending = bs.pending[done:]
}

// take returns the finalised detections accumulated since the last call;
// the returned slice is only valid until the next feed.
func (bs *boxStream) take() []Detection {
	d := bs.out
	bs.out = bs.out[:0]
	return d
}

// streamState is the persistent per-trial state of one streaming search:
// the normalisation and boxcar machines plus the finalised events awaiting
// the global watermark.
type streamState struct {
	dm     float64
	sweep  int // trailing samples this trial's output loses to its dispersion sweep
	norm   *normStream
	box    *boxStream
	clock  *stageClock // shared per-search stage accumulator (nil-safe)
	fed    int64
	events []spe.SPE // finalised, centre-ascending, not yet emitted
}

// feed runs one dedispersed segment through normalise → boxcar → SPE
// conversion, using z as reusable scratch for the normalised samples.
func (st *streamState) feed(tsamp float64, seg, z []float64) []float64 {
	st.fed += int64(len(seg))
	t0 := time.Now()
	z = st.norm.feed(seg, z[:0])
	t1 := time.Now()
	st.box.feed(z)
	st.collect(tsamp)
	st.clock.add3(StageNormalise, t1.Sub(t0), StageBoxcar, time.Since(t1), "", 0)
	return z
}

// finish flushes the normalisation tail and the final boxcar decisions.
func (st *streamState) finish(tsamp float64, z []float64) []float64 {
	t0 := time.Now()
	z = st.norm.finish(z[:0])
	t1 := time.Now()
	st.box.feed(z)
	st.box.finish()
	st.collect(tsamp)
	st.clock.add3(StageNormalise, t1.Sub(t0), StageBoxcar, time.Since(t1), "", 0)
	return z
}

func (st *streamState) collect(tsamp float64) {
	for _, d := range st.box.take() {
		c := d.Center()
		st.events = append(st.events, spe.SPE{
			DM: st.dm, SNR: d.SNR,
			Time: float64(c) * tsamp, Sample: int64(c), Downfact: d.Width,
		})
	}
}

// blockSource yields the gulps of one observation: BlockReader for byte
// streams, memSource for a filterbank already in memory.
type blockSource interface {
	Header() Header
	Next() (*Block, error)
}

// memSource serves an in-memory filterbank as zero-copy blocks.
type memSource struct {
	fb      *Filterbank
	block   int
	overlap int
	k       int
	done    bool
	cur     Block
}

func (ms *memSource) Header() Header { return ms.fb.Header }

func (ms *memSource) Next() (*Block, error) {
	if ms.done {
		return nil, io.EOF
	}
	n := ms.fb.NSamples
	start := ms.k * ms.block
	if start >= n {
		ms.done = true
		return nil, io.EOF
	}
	rows := ms.block + ms.overlap
	if start+rows >= n {
		rows = n - start
		ms.done = true
	}
	fresh := ms.overlap
	if ms.k == 0 {
		fresh = 0
	}
	ms.cur = Block{
		Start: start, Rows: rows, Fresh: fresh, Last: ms.done,
		Data: ms.fb.Data[start*ms.fb.NChans : (start+rows)*ms.fb.NChans],
	}
	ms.k++
	return &ms.cur, nil
}

// zeroDMState carries the zero-DM-filtered view of the gulp stream. Fresh
// rows are filtered exactly once and carried between blocks alongside the
// raw overlap — re-filtering an already-filtered row would subtract its
// (tiny but non-zero) residual mean again and break bit-equivalence with
// the batch ZeroDMFilter.
type zeroDMState struct {
	buf       []float32
	prevStart int
}

func (zd *zeroDMState) apply(blk *Block, nchan int) []float32 {
	need := blk.Rows * nchan
	if cap(zd.buf) < need {
		grown := make([]float32, need)
		copy(grown, zd.buf)
		zd.buf = grown
	}
	buf := zd.buf[:need]
	if blk.Fresh > 0 {
		off := (blk.Start - zd.prevStart) * nchan
		copy(buf[:blk.Fresh*nchan], zd.buf[off:off+blk.Fresh*nchan])
	}
	for t := blk.Fresh; t < blk.Rows; t++ {
		row := blk.Data[t*nchan : (t+1)*nchan]
		var sum float64
		for _, v := range row {
			sum += float64(v)
		}
		m := float32(sum / float64(nchan))
		orow := buf[t*nchan : (t+1)*nchan]
		for i, v := range row {
			orow[i] = v - m
		}
	}
	zd.prevStart = blk.Start
	return buf
}

// streamShifts holds every shift table the block kernels reuse on each
// gulp — all block-invariant, so they are derived once per search instead
// of once per block: the overlap the stream must carry (the largest
// per-trial lookahead), each trial's own sweep (the trailing samples its
// output loses, fixing its final length at N − sweep exactly as the batch
// kernels do), and the plan's channel/subband shift tables.
type streamShifts struct {
	overlap int
	sweeps  []int
	// trialCh is the brute path's per-trial channel shift table.
	trialCh [][]int
	// nomCh/nomIntra are the subband path's per-nominal stage-1 channel
	// shifts and per-subband intra maxima; trialSub its per-trial stage-2
	// subband shifts.
	nomCh    [][]int
	nomIntra [][]int
	trialSub [][]int
}

// buildStreamShifts precomputes streamShifts for one search.
func buildStreamShifts(hdr Header, dms []float64, plan *SubbandPlan) *streamShifts {
	ss := &streamShifts{sweeps: make([]int, len(dms))}
	if plan == nil {
		ss.trialCh = make([][]int, len(dms))
		for i, dm := range dms {
			ss.trialCh[i] = ChannelShifts(hdr, dm, nil)
			ss.sweeps[i] = MaxShift(hdr, dm)
			if ss.sweeps[i] > ss.overlap {
				ss.overlap = ss.sweeps[i]
			}
		}
		return ss
	}
	ss.nomCh = make([][]int, len(plan.NominalDMs))
	ss.nomIntra = make([][]int, len(plan.NominalDMs))
	for k, nu := range plan.NominalDMs {
		ss.nomCh[k] = make([]int, hdr.NChans)
		ss.nomIntra[k] = make([]int, plan.NSub)
		for s := 0; s < plan.NSub; s++ {
			lo, hi := plan.subRange(s)
			maxIntra := 0
			for ch := lo; ch < hi; ch++ {
				sh := int(math.Round(DelaySeconds(nu, hdr.FreqMHz(ch), plan.subRef[s]) / hdr.TsampSec))
				ss.nomCh[k][ch] = sh
				if sh > maxIntra {
					maxIntra = sh
				}
			}
			ss.nomIntra[k][s] = maxIntra
		}
	}
	ss.trialSub = make([][]int, len(dms))
	ftop := hdr.FTopMHz()
	for i, dm := range dms {
		intra := ss.nomIntra[plan.assign[i]]
		ss.trialSub[i] = make([]int, plan.NSub)
		worst := 0
		for s := 0; s < plan.NSub; s++ {
			sh := int(math.Round(DelaySeconds(dm, plan.subRef[s], ftop) / hdr.TsampSec))
			ss.trialSub[i][s] = sh
			if t := sh + intra[s]; t > worst {
				worst = t
			}
		}
		ss.sweeps[i] = worst
		if worst > ss.overlap {
			ss.overlap = worst
		}
	}
	return ss
}

// requiredSweep reports the overlap a block stream of this search must
// carry and the per-trial sweeps (buildStreamShifts carries the full
// tables; this is the arithmetic the equivalence tests pin).
func requiredSweep(hdr Header, dms []float64, plan *SubbandPlan) (overlap int, perTrial []int) {
	ss := buildStreamShifts(hdr, dms, plan)
	return ss.overlap, ss.sweeps
}

// blockSpan is the output region one block contributes to a trial losing
// sweep trailing samples: exactly the block's fresh extent mid-stream,
// clamped to the trial's final series length on the last block.
func blockSpan(blk *Block, block, sweep int) (int, int) {
	lo := blk.Start
	hi := blk.Start + block
	if blk.Last {
		hi = blk.Start + blk.Rows - sweep
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// dedisperseBlock is the brute kernel over one gulp: the trial's output
// samples [outLo, outHi), summed channel-by-channel in the same order as
// Dedisperse so the block path is bit-identical to the batch path. The
// gulp's first row is absolute sample blkStart.
func dedisperseBlock(data []float32, nchan int, shifts []int, blkStart, outLo, outHi int, out []float64) []float64 {
	n := outHi - outLo
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	for t := range out {
		out[t] = 0
	}
	for ch := 0; ch < nchan; ch++ {
		base := (outLo+shifts[ch]-blkStart)*nchan + ch
		for t := 0; t < n; t++ {
			out[t] += float64(data[base])
			base += nchan
		}
	}
	return out
}

// emitReady drains every finalised event that can no longer be preceded by
// a future one — centre before the global watermark, the minimum over
// trials of each trial's earliest possible unemitted event — and hands
// them to emit in the batch path's exact output order (SortByTime: time
// ascending, ties by DM).
func emitReady(trials []*streamState, all bool, emit func([]spe.SPE) error, stats *Stats) error {
	var batch []spe.SPE
	if all {
		for _, st := range trials {
			batch = append(batch, st.events...)
			st.events = nil
		}
	} else {
		wm := int64(math.MaxInt64)
		for _, st := range trials {
			if h := int64(st.box.horizon()); h < wm {
				wm = h
			}
		}
		for _, st := range trials {
			n := 0
			for n < len(st.events) && st.events[n].Sample < wm {
				n++
			}
			if n > 0 {
				batch = append(batch, st.events[:n]...)
				st.events = st.events[n:]
			}
		}
	}
	if len(batch) == 0 {
		return nil
	}
	spe.SortByTime(batch)
	stats.Events += len(batch)
	return emit(batch)
}

// searchBlockStream is the streaming driver shared by SearchStream,
// SearchBlocks, SearchFilterbank and Search-with-BlockSamples: it opens
// the block source once the required overlap is known, fans each block out
// on the rdd pool (per trial on the brute path, per nominal on the subband
// path — per-trial state is touched only by its own task, so any worker
// count folds identically), and emits watermark-ordered event batches
// between blocks.
func searchBlockStream(ctx context.Context, hdr Header, open func(overlap int) (blockSource, error), cfg Config, emit func([]spe.SPE) error) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var stats Stats
	if err := hdr.Validate(); err != nil {
		return stats, err
	}
	if cfg.TrialLo != 0 || cfg.TrialHi != 0 {
		return stats, fmt.Errorf("sps: the streaming search does not support a trial range (TrialLo/TrialHi); restrict batch searches only")
	}
	widths, threshold, sub, planDesc, err := resolveSearch(hdr, &cfg)
	if err != nil {
		return stats, err
	}
	stats.Plan = planDesc
	shifts := buildStreamShifts(hdr, cfg.DMs, sub)
	overlap := shifts.overlap
	if cfg.BlockSamples < 1 {
		return stats, fmt.Errorf("sps: streaming search needs BlockSamples >= 1, got %d", cfg.BlockSamples)
	}
	if cfg.BlockSamples < overlap {
		return stats, fmt.Errorf("sps: block of %d samples is smaller than the %d-sample dispersion sweep of trial DM %g; streaming needs BlockSamples >= %d",
			cfg.BlockSamples, overlap, cfg.DMs[len(cfg.DMs)-1], overlap)
	}
	sc := newStageClock()
	trials := make([]*streamState, len(cfg.DMs))
	for i, dm := range cfg.DMs {
		trials[i] = &streamState{dm: dm, sweep: shifts.sweeps[i], norm: newNormStream(cfg.NormWindow), box: newBoxStream(widths, threshold), clock: sc}
	}
	src, err := open(overlap)
	if err != nil {
		return stats, err
	}
	var groups [][]int
	if sub != nil {
		groups = sub.nominalGroups()
	}
	var zd zeroDMState
	// Under the blocked kernel each gulp is staged channel-major once and
	// shared read-only by every trial's (or nominal's) task — the staging
	// cost amortises over the whole trial grid exactly as on the batch path.
	var cm *chanMajor
	if cfg.Plan.Kernel != KernelScalar {
		cm = &chanMajor{}
	}
	nchan := hdr.NChans
	tsamp := hdr.TsampSec
	for {
		tRead := time.Now()
		blk, err := src.Next()
		sc.add(StageIngest, time.Since(tRead))
		if err == io.EOF {
			break
		}
		if err != nil {
			return stats, err
		}
		data := blk.Data
		if cfg.ZeroDM {
			tz := time.Now()
			data = zd.apply(blk, nchan)
			sc.add(StageZeroDM, time.Since(tz))
		}
		if cm != nil {
			ts := time.Now()
			cm.stage(data, blk.Rows, nchan)
			sc.add(StageDedisperse, time.Since(ts))
		}
		if sub != nil {
			err = rdd.RunParallel(ctx, cfg.Exec, len(groups), func(k int) {
				if len(groups[k]) == 0 {
					return
				}
				bufs := subbandPool.Get().(*subbandBuffers)
				defer subbandPool.Put(bufs)
				td := time.Now()
				bufs.sub = sub.stage1Block(data, cm, blk.Rows, shifts.nomCh[k], shifts.nomIntra[k], bufs.sub)
				var dd time.Duration = time.Since(td)
				for _, i := range groups[k] {
					st := trials[i]
					outLo, outHi := blockSpan(blk, cfg.BlockSamples, st.sweep)
					if outHi <= outLo {
						continue
					}
					tc := time.Now()
					bufs.combined = sub.combineBlock(bufs.sub, shifts.trialSub[i], blk.Start, outLo, outHi, bufs.combined)
					dd += time.Since(tc)
					bufs.z = st.feed(tsamp, bufs.combined, bufs.z)
				}
				sc.add(StageDedisperse, dd)
			})
		} else {
			err = rdd.RunParallel(ctx, cfg.Exec, len(trials), func(i int) {
				st := trials[i]
				outLo, outHi := blockSpan(blk, cfg.BlockSamples, st.sweep)
				if outHi <= outLo {
					return
				}
				bufs := trialPool.Get().(*trialBuffers)
				defer trialPool.Put(bufs)
				td := time.Now()
				if cm != nil {
					bufs.series = cm.dedisperse(shifts.trialCh[i], outLo-blk.Start, outHi-outLo, bufs.series)
				} else {
					bufs.series = dedisperseBlock(data, nchan, shifts.trialCh[i], blk.Start, outLo, outHi, bufs.series)
				}
				sc.add(StageDedisperse, time.Since(td))
				bufs.z = st.feed(tsamp, bufs.series, bufs.z)
			})
		}
		if err != nil {
			return stats, err
		}
		if err := emitReady(trials, false, emit, &stats); err != nil {
			return stats, err
		}
	}
	if err := rdd.RunParallel(ctx, cfg.Exec, len(trials), func(i int) {
		bufs := trialPool.Get().(*trialBuffers)
		defer trialPool.Put(bufs)
		bufs.z = trials[i].finish(tsamp, bufs.z)
	}); err != nil {
		return stats, err
	}
	if err := emitReady(trials, true, emit, &stats); err != nil {
		return stats, err
	}
	for _, st := range trials {
		stats.Samples += st.fed
		if st.fed > 0 {
			stats.Trials++
		}
	}
	stats.StageSeconds = sc.seconds()
	return stats, nil
}

// SearchStream runs the streaming search over a SIGPROC byte stream —
// header parsed eagerly, data consumed in cfg.BlockSamples gulps — and
// emits event batches as blocks complete, in exactly the order (and with
// exactly the records) the batch Search would return. The returned Header
// is available to emit callbacks only through closure over the first
// return of ReadHeader; callers that need it before the first batch should
// use ReadHeader + SearchBlocks directly.
func SearchStream(ctx context.Context, r io.Reader, cfg Config, emit func([]spe.SPE) error) (Header, Stats, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	hdr, err := ReadHeader(br)
	if err != nil {
		return Header{}, Stats{}, err
	}
	stats, err := SearchBlocks(ctx, hdr, br, cfg, emit)
	return hdr, stats, err
}

// SearchBlocks is SearchStream for a reader already positioned at the
// first data byte of an observation with the given header — the entry
// point for callers (the engine, the HTTP stream endpoint) that parse the
// header first to derive keys and feature parameters.
func SearchBlocks(ctx context.Context, hdr Header, data io.Reader, cfg Config, emit func([]spe.SPE) error) (Stats, error) {
	return searchBlockStream(ctx, hdr, func(overlap int) (blockSource, error) {
		return newBlockReaderAt(hdr, data, cfg.BlockSamples, overlap)
	}, cfg, emit)
}

// SearchFilterbank runs the streaming driver over a filterbank already in
// memory, serving it as zero-copy blocks — the path Search takes when
// cfg.BlockSamples is set, and the cheapest way to check stream/batch
// equivalence.
func SearchFilterbank(ctx context.Context, fb *Filterbank, cfg Config, emit func([]spe.SPE) error) (Stats, error) {
	var stats Stats
	if err := fb.Validate(); err != nil {
		return stats, err
	}
	if len(fb.Data) != fb.NSamples*fb.NChans {
		return stats, fmt.Errorf("sps: data has %d values, header says %d", len(fb.Data), fb.NSamples*fb.NChans)
	}
	return searchBlockStream(ctx, fb.Header, func(overlap int) (blockSource, error) {
		return &memSource{fb: fb, block: cfg.BlockSamples, overlap: overlap}, nil
	}, cfg, emit)
}
