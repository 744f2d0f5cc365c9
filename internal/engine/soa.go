package engine

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"dmra/internal/mec"
)

// This file is the struct-of-arrays round engine: the same Alg. 1 state
// machine as Proposer/SelectRound, laid out over the dense CSR view for
// the million-UE regime. The per-UE alive-candidate lists, the BS ledger,
// and every round buffer live in a handful of flat arrays inside an
// Arena that is reset — not reallocated — across runs, so a steady-state
// run performs zero heap allocations and walks memory sequentially
// instead of chasing a pointer per UE and another per candidate list.
//
// Both phases of a round optionally fan across workers, with the worker
// on the caller's goroutine taking the first share. That is safe and
// exactly deterministic because of how Alg. 1 rounds are structured:
//
//   - Propose only READS the residual ledger (remCRU/remRRB) and the
//     assigned bitset; the select phase, which runs strictly after all
//     propose workers join, is the only writer. Workers score against an
//     immutable snapshot by construction.
//   - All per-UE mutable state (the candidate region, hlen) is touched
//     only by the propose worker that owns the UE, and propose workers
//     own contiguous chunks of the pending list.
//   - Each propose worker writes proposals into its own chunk of the
//     proposal buffer; the serial merge concatenates the chunks in
//     worker order, which — because the pending list is ascending and
//     chunks are contiguous — is exactly the order a serial sweep would
//     have produced.
//   - Select workers own contiguous BS ranges. Each UE proposes to
//     exactly one BS per round, so BS b's select writes only its own
//     ledger row (remCRU[b*S:(b+1)*S], remRRB[b]), bsCnt[b], and
//     serving[u] for the UEs in its own bucket: no two workers touch
//     the same element. The shared assigned bitset, whose words span
//     64 UEs of possibly different BSs, is set after the join from
//     per-worker admitted lists, and stats and Verdict hooks are
//     replayed in worker order — ascending BS order, as a serial select
//     would have produced them.
//
// Assignments, statistics, scan counters, and the ordered event stream
// are therefore byte-identical at any worker count, the same determinism
// contract the wire coordinator proves for shards.

// autoItemsPerWorker is the per-worker work floor of an auto-sized
// phase (workers <= 0): a propose phase over n pending UEs, or a select
// phase over n proposals, runs on at most n/autoItemsPerWorker workers,
// so the small late rounds of a match and the few-hundred-UE repair
// rounds of an Incremental session stay on the caller's goroutine. It
// was measured on a 2-core Xeon VM by settling Incremental frontiers of
// 256 to 16k UEs over a half-matched 110k-UE dense city (Scale(10)) at
// one and two workers, median of 40: two workers were 21% slower at 256
// UEs, 5% slower at 1k, 3% faster at 2k and 13-17% faster from 4k up.
// The break-even is thus ~1k items per worker; the floor sits a factor
// of two above it, so fan-out starts at 4k items. Explicit worker counts
// are honoured exactly, so the parity tests still fan out at toy sizes.
const autoItemsPerWorker = 2048

// fanout resolves the worker count of one phase over n items: an
// explicit count is capped only by n; auto (workers <= 0) is GOMAXPROCS
// capped by the autoItemsPerWorker floor. The result is at least 1.
func fanout(workers, n int) int {
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), n/autoItemsPerWorker)
	}
	return max(1, min(workers, n))
}

// soaProposal is one UE's proposal of a round: the proposing UE and the
// global candidate index (into the CSR arrays) of the link it chose.
type soaProposal struct {
	ue int32
	g  int32
}

// SoAHooks are the optional observation points of an Arena run. A nil
// hooks pointer (or nil fields) keeps the run allocation- and
// branch-free on the hot path. All hooks run on the caller's goroutine,
// in deterministic order: Round, then Propose/Cloud in ascending UE
// order over the whole unassigned population, then Verdict in BS order
// (verdict order within a BS), then Snapshot, then RoundDone. Verdict
// fires once the round's whole select phase has joined.
type SoAHooks struct {
	// Round fires at the top of each round (1-based).
	Round func(round int)
	// Propose fires for each proposing UE, in ascending UE order.
	Propose func(u, b int32)
	// Cloud fires for each unassigned UE with no viable candidate left,
	// interleaved with Propose in the same ascending-UE sweep.
	Cloud func(u int32)
	// Verdict fires for every select decision, BSs in ascending order.
	Verdict func(b int32, v Verdict)
	// Snapshot receives the full matching state after each round's
	// select phase (and once more after the final, empty round). The
	// snapshot is reused across calls; Clone to retain.
	Snapshot RoundHook
	// RoundDone fires after Snapshot on every round that had proposals.
	RoundDone func(round int)
}

// SoAStats are the run counters of an Arena run, matching the meaning of
// the naive reference's statistics exactly.
type SoAStats struct {
	Rounds    int
	Proposals int
	Accepts   int
	Rejects   int
}

// Arena is the reusable state of a struct-of-arrays DMRA run. The zero
// value is ready to use; Run resets and right-sizes every buffer,
// reusing backing storage across runs and epochs so pooled drivers
// stay allocation-free. An Arena belongs to one run at a time; it is
// not safe for concurrent use (its propose and select workers are
// internal).
type Arena struct {
	csr *mec.CSR
	cfg Config

	// Dense ledger, addressed by BS index: remCRU is Services-strided
	// like CSR.CRUCap.
	remCRU []int32
	remRRB []int32

	// serving[u] is the admitting BS or -1 (mec.CloudBS); assigned is
	// the same fact as a bitset for the O(1) membership tests in the
	// propose and event sweeps.
	serving  []int32
	assigned Bitset

	// cru[u] is UE u's CRU demand. Plain runs alias csr.CRU (immutable);
	// the incremental engine swaps in a private, mutable copy so demand
	// changes never write through to the shared CSR.
	cru []int32

	// Flat alive-candidate lists, one region per UE at csr.Off[u]:
	// hk[Off[u]:Off[u]+hlen[u]] holds the candidate indices not yet
	// dropped as infeasible, in no particular order.
	hk   []int32
	hlen []int32

	// Dirty-region tracking: a UE's region is valid only while
	// hstamp[u] == run. reset bumps run instead of re-filling the
	// O(links) hk array; each region is (re)initialized lazily at the
	// UE's first propose of the run, inside the propose worker that owns
	// it. The incremental engine clears individual stamps to force a
	// region rebuild after a ledger credit.
	hstamp []uint32
	run    uint32

	// pending holds the UEs that can still propose, ascending; each
	// round it compacts to the UEs that proposed.
	pending []int32
	// props collects the round's proposals: workers fill disjoint
	// chunks, the merge compacts them to props[:nprops] in UE order.
	props  []soaProposal
	nprops int

	// Per-worker propose outputs: proposal counts and scan counters,
	// summed serially after the join so totals are worker-count
	// independent. wg joins the workers of either phase.
	wcnt  []int32
	wscan []uint64
	wg    sync.WaitGroup

	// Select-phase scratch: counting-sort of proposals by BS (bsCnt,
	// bsOff cursor, sorted), the select workers' BS-range bounds, and
	// one private scratch/ledger/output set per select worker.
	bsCnt  []int32
	bsOff  []int32
	sorted []soaProposal
	sbound []int32
	sw     []selectWorker
	// wideSelects counts the rounds whose select phase ran on two or
	// more non-empty BS ranges, so tests can prove the fan-out happened.
	wideSelects int

	// Invariant-recount scratch.
	invCRU []int32
	invRRB []int32

	snap    *Snapshot
	scanned uint64
}

// grown returns s resized to n elements, reusing capacity when it
// suffices. Contents are unspecified; callers overwrite.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Run executes Alg. 1 to quiescence over net's dense candidate view,
// with each round's propose and select phases partitioned across
// workers: exactly that many (capped by the phase's item count), or,
// for workers <= 0, up to GOMAXPROCS with at least autoItemsPerWorker
// items each. The result is byte-identical at any worker count and
// exact at any rho (see proposeUEScan). It requires a dense view
// (NewNetwork-built networks).
func (a *Arena) Run(net *mec.Network, cfg Config, workers int, hooks *SoAHooks) (SoAStats, error) {
	csr := net.Dense()
	if csr == nil {
		return SoAStats{}, fmt.Errorf("engine: Arena.Run: network has no dense candidate view")
	}
	a.reset(csr, cfg)
	var snapHook RoundHook
	if hooks != nil && hooks.Snapshot != nil {
		snapHook = hooks.Snapshot
		a.snap = NewSnapshot(net)
	}

	var stats SoAStats
	maxRounds := csr.Links() + 1 // engine.RoundBound over the dense view
	for {
		stats.Rounds++
		if hooks != nil && hooks.Round != nil {
			hooks.Round(stats.Rounds)
		}
		n := a.proposeRound(workers)
		stats.Proposals += n
		if hooks != nil && (hooks.Propose != nil || hooks.Cloud != nil) {
			a.emitProposeEvents(hooks)
		}
		if n == 0 {
			if snapHook != nil {
				a.snap.CaptureArena(a, stats.Rounds)
				snapHook(a.snap)
			}
			break
		}
		a.bucketByBS()
		if err := a.selectAll(workers, &stats, hooks); err != nil {
			return stats, err
		}
		if snapHook != nil {
			a.snap.CaptureArena(a, stats.Rounds)
			snapHook(a.snap)
		}
		if hooks != nil && hooks.RoundDone != nil {
			hooks.RoundDone(stats.Rounds)
		}
		if stats.Rounds > maxRounds {
			return stats, fmt.Errorf("engine: Arena exceeded %d rounds", maxRounds)
		}
	}
	if err := a.checkInvariants(); err != nil {
		return stats, err
	}
	return stats, nil
}

// reset rewinds the arena for a fresh run over csr, reusing storage.
// The O(links) candidate regions are NOT re-filled here: bumping the run
// stamp invalidates every region at once, and each is rebuilt lazily at
// its UE's first propose (see initRegion) — so reset itself is
// O(UEs + BSs·Services), and a run only pays region setup for UEs that
// actually propose.
func (a *Arena) reset(csr *mec.CSR, cfg Config) {
	a.csr = csr
	a.cfg = cfg
	a.cru = csr.CRU
	a.scanned = 0
	a.nprops = 0
	a.wideSelects = 0
	nUE, nBS, links := csr.UEs(), csr.BSs(), csr.Links()

	a.remCRU = grown(a.remCRU, len(csr.CRUCap))
	copy(a.remCRU, csr.CRUCap)
	a.remRRB = grown(a.remRRB, nBS)
	copy(a.remRRB, csr.MaxRRB)

	a.serving = grown(a.serving, nUE)
	for i := range a.serving {
		a.serving[i] = -1
	}
	a.assigned.Reset(nUE)

	a.hk = grown(a.hk, links)
	a.hlen = grown(a.hlen, nUE)
	// One stamp bump invalidates every candidate region. Stamps from earlier
	// runs are always below the new run value, except after the (in
	// practice unreachable) uint32 wrap, which restarts the count over a
	// cleared array, or when the array grows, which starts one fresh.
	if cap(a.hstamp) < nUE {
		a.hstamp = make([]uint32, nUE)
		a.run = 0
	} else if a.run == ^uint32(0) {
		a.hstamp = a.hstamp[:cap(a.hstamp)]
		clear(a.hstamp)
		a.run = 0
	}
	a.run++
	a.hstamp = a.hstamp[:nUE]

	if cap(a.pending) < nUE {
		a.pending = make([]int32, 0, nUE)
	}
	a.pending = a.pending[:0]
	for u := 0; u < nUE; u++ {
		if csr.Off[u+1] > csr.Off[u] {
			a.pending = append(a.pending, int32(u))
		}
	}

	a.props = grown(a.props, nUE)
	a.sorted = grown(a.sorted, nUE)
	a.bsCnt = grown(a.bsCnt, nBS)
	clear(a.bsCnt)
	a.bsOff = grown(a.bsOff, nBS)
}

// initRegion (re)builds UE u's candidate region for the current run:
// the full candidate list alive. Called by the propose worker that owns
// u, so the writes are UE-local and race-free under parallel propose.
func (a *Arena) initRegion(u int32) {
	lo, hi := a.csr.Off[u], a.csr.Off[u+1]
	cnt := hi - lo
	a.hlen[u] = cnt
	for k := int32(0); k < cnt; k++ {
		a.hk[lo+k] = k
	}
	a.hstamp[u] = a.run
}

// proposeRound runs one propose phase over the pending list across
// fanout(workers) workers in ceil(n/workers)-sized chunks, merges the
// per-worker proposal chunks in global UE order, and compacts the
// pending list to this round's proposers. It returns the number of
// proposals.
func (a *Arena) proposeRound(workers int) int {
	n := len(a.pending)
	workers = fanout(workers, n)
	a.wcnt = grown(a.wcnt, workers)
	a.wscan = grown(a.wscan, workers)
	chunk := (n + workers - 1) / workers
	if workers == 1 {
		a.proposeWorker(0, 0, n)
	} else {
		a.wg.Add(workers - 1)
		for w := 1; w < workers; w++ {
			lo := min(w*chunk, n)
			go a.proposeWorkerWG(w, lo, min(lo+chunk, n))
		}
		a.proposeWorker(0, 0, chunk)
		a.wg.Wait()
	}

	out := 0
	for w := 0; w < workers; w++ {
		if c := int(a.wcnt[w]); c > 0 {
			lo := w * chunk
			if lo != out {
				copy(a.props[out:out+c], a.props[lo:lo+c])
			}
			out += c
		}
		a.scanned += a.wscan[w]
	}
	a.nprops = out
	// Next round's pending list is exactly this round's proposers: a UE
	// leaves on assignment (checked at propose time) or on candidate
	// exhaustion (it stopped proposing).
	a.pending = a.pending[:out]
	for i := 0; i < out; i++ {
		a.pending[i] = a.props[i].ue
	}
	return out
}

func (a *Arena) proposeWorkerWG(w, lo, hi int) {
	defer a.wg.Done()
	a.proposeWorker(w, lo, hi)
}

// proposeWorker proposes for pending[lo:hi], writing proposals into the
// props chunk starting at lo and its counters into slot w. It reads the
// ledger and the assigned bitset but writes only UE-local candidate
// state and its own output slots. scanned counts the candidates
// visited.
func (a *Arena) proposeWorker(w, lo, hi int) {
	var cnt int32
	var scanned uint64
	props, pending := a.props, a.pending
	for i := lo; i < hi; i++ {
		u := pending[i]
		if a.assigned.Get(u) {
			continue
		}
		if a.hstamp[u] != a.run {
			a.initRegion(u)
		}
		scanned += uint64(a.hlen[u])
		g, ok := a.proposeUEScan(u)
		if ok {
			props[lo+int(cnt)] = soaProposal{ue: u, g: g}
			cnt++
		}
	}
	a.wcnt[w] = cnt
	a.wscan[w] = scanned
}

// proposeUEScan is Proposer.Propose over the flat arena (Alg. 1 lines
// 3-10): a straight sweep over the UE's unordered alive-candidate list
// (hk[Off[u]:Off[u]+hlen[u]]) that drops every currently-infeasible
// candidate and returns the global index of the (preference,
// candidate-index)-lex minimum of the rest — the lowest-index minimum,
// exactly what the naive first-strictly-less sweep picks. Every
// surviving candidate is scored fresh against the live ledger, so no
// cached value can go stale whatever rho's sign; and a drop is final
// because residuals never grow within a run — infeasible now means
// infeasible forever. Each proposal touches one contiguous int32 run
// plus the ledger.
func (a *Arena) proposeUEScan(u int32) (int32, bool) {
	n := a.hlen[u]
	if n == 0 {
		return 0, false
	}
	csr := a.csr
	base := csr.Off[u]
	svc := csr.Service[u]
	need := a.cru[u]
	S := int32(csr.Services)
	hk := a.hk
	best := int32(-1)
	var bestV float64
	for i := int32(0); i < n; {
		k := hk[base+i]
		gi := base + k
		b := csr.BS[gi]
		remCRU := a.remCRU[b*S+svc]
		remRRB := a.remRRB[b]
		if remCRU < need || remRRB < csr.RRBs[gi] {
			n--
			hk[base+i] = hk[base+n]
			continue
		}
		v := a.cfg.preference(csr.Price[gi], int(remCRU)+int(remRRB))
		if best < 0 || soaLess(v, k, bestV, best) {
			best, bestV = k, v
		}
		i++
	}
	a.hlen[u] = n
	if best < 0 {
		return 0, false
	}
	return base + best, true
}

// soaLess orders (preference, candidate index) pairs lexicographically:
// the index tie-break reproduces the naive first-strictly-less sweep in
// candidate order, which keeps the lowest-index minimum.
func soaLess(v1 float64, k1 int32, v2 float64, k2 int32) bool {
	return v1 < v2 || (v1 == v2 && k1 < k2)
}

// emitProposeEvents walks the whole population in ascending UE order and
// fires Propose for this round's proposers and Cloud for every other
// unassigned UE — the event order the naive reference and the
// message-passing runtimes produce.
func (a *Arena) emitProposeEvents(hooks *SoAHooks) {
	nUE := int32(a.csr.UEs())
	pi := 0
	for u := int32(0); u < nUE; u++ {
		if a.assigned.Get(u) {
			continue
		}
		if pi < a.nprops && a.props[pi].ue == u {
			if hooks.Propose != nil {
				hooks.Propose(u, a.csr.BS[a.props[pi].g])
			}
			pi++
		} else if hooks.Cloud != nil {
			hooks.Cloud(u)
		}
	}
}

// bucketByBS counting-sorts props[:nprops] by target BS into sorted.
// The scatter is stable, so each BS's inbox keeps ascending-UE order —
// the order the serial per-BS inbox appends would have produced. After
// the call, bsOff[b] is the END of BS b's bucket and bsCnt[b] its size.
func (a *Arena) bucketByBS() {
	bs := a.csr.BS
	for _, p := range a.props[:a.nprops] {
		a.bsCnt[bs[p.g]]++
	}
	off := int32(0)
	for b := range a.bsOff {
		off += a.bsCnt[b]
		a.bsOff[b] = off - a.bsCnt[b]
	}
	for _, p := range a.props[:a.nprops] {
		b := bs[p.g]
		a.sorted[a.bsOff[b]] = p
		a.bsOff[b]++
	}
}

// selectAll runs the select phase (Alg. 1 lines 11-26) for every BS with
// proposals through the canonical Config.SelectRound, with the BSs split
// into fanout(workers) contiguous ranges balanced by proposal count.
// Worker 0 runs on the caller's goroutine. After the join it folds the
// workers' outputs in worker order — ascending BS order, the order of a
// serial sweep: stats, the lowest worker's error, the buffered Verdict
// hooks, and the assigned bits of the admitted UEs. bsCnt is re-zeroed
// as buckets are consumed, keeping it all-zero between rounds.
func (a *Arena) selectAll(workers int, stats *SoAStats, hooks *SoAHooks) error {
	nBS := a.csr.BSs()
	workers = fanout(workers, a.nprops)
	if len(a.sw) < workers {
		a.sw = append(a.sw, make([]selectWorker, workers-len(a.sw))...)
	}
	// bsOff[b] is the end of BS b's bucket, a non-decreasing prefix sum
	// of the proposal counts: worker w starts just past the first BS
	// whose bucket end reaches w/workers of the proposals.
	a.sbound = grown(a.sbound, workers+1)
	a.sbound[0] = 0
	for w := 1; w < workers; w++ {
		b, _ := slices.BinarySearch(a.bsOff[:nBS], int32((w*a.nprops+workers-1)/workers))
		a.sbound[w] = int32(b + 1)
	}
	a.sbound[workers] = int32(nBS)
	record := hooks != nil && hooks.Verdict != nil
	if workers > 1 {
		a.wg.Add(workers - 1)
		for w := 1; w < workers; w++ {
			go a.selectWorkerWG(w, record)
		}
	}
	a.selectRange(0, record)
	a.wg.Wait()

	wide := 0
	for w := 0; w < workers; w++ {
		sw := &a.sw[w]
		if a.sbound[w] < a.sbound[w+1] {
			wide++
		}
		stats.Accepts += sw.accepts
		stats.Rejects += sw.rejects
		for _, bv := range sw.verdicts {
			p := a.sorted[bv.i]
			hooks.Verdict(a.csr.BS[p.g], Verdict{Req: a.request(p.ue, p.g), Accepted: bv.accepted, Permanent: bv.permanent})
		}
		for _, u := range sw.admitted {
			a.assigned.Set(u)
		}
		if sw.err != nil {
			return sw.err
		}
	}
	if wide > 1 {
		a.wideSelects++
	}
	return nil
}

func (a *Arena) selectWorkerWG(w int, record bool) {
	defer a.wg.Done()
	a.selectRange(w, record)
}

// selectRange runs select worker w over its BS range, stopping at the
// first SelectRound error. It writes only the range's ledger rows,
// bsCnt entries and bucket UEs' serving slots, plus its own
// selectWorker; verdicts are buffered only when record is set.
func (a *Arena) selectRange(w int, record bool) {
	sw := &a.sw[w]
	sw.a, sw.accepts, sw.rejects, sw.err = a, 0, 0, nil
	sw.admitted = sw.admitted[:0]
	sw.verdicts = sw.verdicts[:0]
	for b := a.sbound[w]; b < a.sbound[w+1]; b++ {
		c := a.bsCnt[b]
		if c == 0 {
			continue
		}
		a.bsCnt[b] = 0
		start := a.bsOff[b] - c
		bucket := a.sorted[start : start+c]
		sw.reqs = sw.reqs[:0]
		for _, p := range bucket {
			sw.reqs = append(sw.reqs, a.request(p.ue, p.g))
		}
		sw.bs = b
		verdicts, err := a.cfg.SelectRound(sw, sw.reqs, &sw.sel)
		if err != nil {
			sw.err = err
			return
		}
		for _, v := range verdicts {
			if v.Accepted {
				sw.accepts++
			} else {
				sw.rejects++
			}
			if record {
				// The bucket is ascending by UE, each UE in it once.
				i, _ := slices.BinarySearchFunc(bucket, int32(v.Req.UE), func(p soaProposal, u int32) int { return cmp.Compare(p.ue, u) })
				sw.verdicts = append(sw.verdicts, bufVerdict{i: start + int32(i), accepted: v.Accepted, permanent: v.Permanent})
			}
		}
	}
}

// selectWorker is one select worker's private state: its request batch
// and SelectRound scratch, and its outputs for the serial fold. It is
// also the engine.Ledger over the row of the BS it is selecting for,
// passed by pointer so the interface conversion never allocates.
type selectWorker struct {
	a  *Arena
	bs int32

	reqs []Request
	sel  SelectScratch

	accepts, rejects int
	err              error
	// admitted lists the UEs admitted this round, for the assigned bits
	// set after the join; verdicts buffers the Verdict hook calls.
	admitted []int32
	verdicts []bufVerdict
}

// bufVerdict is one buffered Verdict hook call: the decided proposal's
// index into sorted, and the outcome. The replay rebuilds the verdict's
// Request from that proposal — the very Request SelectRound decided —
// so a buffered verdict costs 8 bytes, not a whole Verdict.
type bufVerdict struct {
	i                   int32
	accepted, permanent bool
}

// request builds the select-phase Request of UE u's proposal over
// candidate link g.
func (a *Arena) request(u, g int32) Request {
	csr := a.csr
	return Request{
		UE:      mec.UEID(u),
		Service: mec.ServiceID(csr.Service[u]),
		CRUs:    int(a.cru[u]),
		RRBs:    int(csr.RRBs[g]),
		SameSP:  csr.SameSP[g],
		Fu:      int(csr.Fu[u]),
	}
}

// Residual implements Ledger.
func (sw *selectWorker) Residual(j mec.ServiceID) (remCRU, remRRBs int) {
	a := sw.a
	return int(a.remCRU[sw.bs*int32(a.csr.Services)+int32(j)]), int(a.remRRB[sw.bs])
}

// Admit implements Ledger: debit the dense ledger and record the
// assignment. SelectRound only calls it after a Residual feasibility
// check.
func (sw *selectWorker) Admit(r Request) error {
	a, b := sw.a, sw.bs
	a.remCRU[b*int32(a.csr.Services)+int32(r.Service)] -= int32(r.CRUs)
	a.remRRB[b] -= int32(r.RRBs)
	u := int32(r.UE)
	a.serving[u] = b
	sw.admitted = append(sw.admitted, u)
	return nil
}

// checkInvariants recounts the ledger from the final assignment, the
// arena-side mirror of mec.State.CheckInvariants: every served UE must
// sit on a real candidate link, the bitset must agree with serving, and
// capacities minus admitted demand must equal the residuals exactly.
func (a *Arena) checkInvariants() error {
	csr := a.csr
	S := int32(csr.Services)
	a.invCRU = grown(a.invCRU, len(csr.CRUCap))
	clear(a.invCRU)
	a.invRRB = grown(a.invRRB, csr.BSs())
	clear(a.invRRB)
	for u := int32(0); int(u) < csr.UEs(); u++ {
		b := a.serving[u]
		if (b >= 0) != a.assigned.Get(u) {
			return fmt.Errorf("engine: arena state invalid: UE %d serving=%d but assigned bit %v", u, b, a.assigned.Get(u))
		}
		if b < 0 {
			continue
		}
		g := csr.FindCand(mec.UEID(u), mec.BSID(b))
		if g < 0 {
			return fmt.Errorf("engine: arena state invalid: UE %d served by non-candidate BS %d", u, b)
		}
		a.invCRU[b*S+csr.Service[u]] += a.cru[u]
		a.invRRB[b] += csr.RRBs[g]
	}
	for b := int32(0); int(b) < csr.BSs(); b++ {
		for j := int32(0); j < S; j++ {
			if got, want := a.remCRU[b*S+j], csr.CRUCap[b*S+j]-a.invCRU[b*S+j]; got != want || got < 0 {
				return fmt.Errorf("engine: arena ledger drift: BS %d service %d residual CRUs = %d, recount %d", b, j, got, want)
			}
		}
		if got, want := a.remRRB[b], csr.MaxRRB[b]-a.invRRB[b]; got != want || got < 0 {
			return fmt.Errorf("engine: arena ledger drift: BS %d residual RRBs = %d, recount %d", b, got, want)
		}
	}
	return nil
}

// Serving returns the per-UE serving BS indices (-1 = cloud) of the
// completed run. The slice is owned by the arena and valid until the
// next Run.
func (a *Arena) Serving() []int32 { return a.serving }

// UEs, BSs, and Services report the dimensions of the current run.
func (a *Arena) UEs() int      { return a.csr.UEs() }
func (a *Arena) BSs() int      { return a.csr.BSs() }
func (a *Arena) Services() int { return a.csr.Services }

// RemCRU returns BS b's residual CRUs for service j.
func (a *Arena) RemCRU(b, j int) int { return int(a.remCRU[b*a.csr.Services+j]) }

// RemRRB returns BS b's residual radio blocks.
func (a *Arena) RemRRB(b int) int { return int(a.remRRB[b]) }

// AssignedCount returns the number of served UEs.
func (a *Arena) AssignedCount() int { return a.assigned.Count() }

// Scanned returns the cumulative candidates visited by the propose
// phase, the same meaning as Proposer.Scanned.
func (a *Arena) Scanned() uint64 { return a.scanned }
