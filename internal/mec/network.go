package mec

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"dmra/internal/geo"
	"dmra/internal/radio"
)

// Link is the precomputed state of one reachable, service-compatible UE-BS
// pair. Allocators iterate candidate links instead of re-deriving radio and
// pricing quantities on every proposal round.
type Link struct {
	UE UEID
	BS BSID
	// DistanceM is d_{i,u} in metres.
	DistanceM float64
	// RRBs is n_{u,i} (Eq. 3): radio blocks the BS must allocate.
	RRBs int
	// PricePerCRU is p_{i,u} (Eq. 9-10).
	PricePerCRU float64
	// SameSP records whether the UE and BS belong to the same SP.
	SameSP bool
	// SINR is lambda_{u,i} (linear), including the link's shadowing draw
	// when enabled; NonCo ranks candidates by it.
	SINR float64
	// ShadowDB is the link's log-normal shadowing loss (0 when disabled).
	ShadowDB float64
}

// Network is an immutable scenario: the entity sets of Table I plus every
// derived per-link quantity. Build one with NewNetwork and share it freely;
// all methods are safe for concurrent readers.
type Network struct {
	SPs      []SP
	BSs      []BS
	UEs      []UE
	Services int
	Radio    radio.Config
	Pricing  Pricing

	// links[u] holds the candidate links of UE u (B_u in Alg. 1): BSs that
	// cover u and host u's requested service, in BS order.
	links [][]Link
	// coverCount[u] is f_u: how many BSs cover u and host its service.
	coverCount []int
	// dense lazily carries the struct-of-arrays candidate view (see
	// soa.go). Only NewNetwork-built networks and their SubViews have
	// one.
	dense csrState
}

// NewNetwork validates the scenario and precomputes per-link radio and
// pricing state. It returns an error for structurally invalid scenarios
// (bad references, capacity/pricing violations of Eq. 16, invalid radio
// parameters).
func NewNetwork(sps []SP, bss []BS, ues []UE, services int, rc radio.Config, pr Pricing) (*Network, error) {
	networkBuilds.Add(1)
	n := &Network{
		SPs:      sps,
		BSs:      bss,
		UEs:      ues,
		Services: services,
		Radio:    rc,
		Pricing:  pr,
	}
	if err := n.validate(); err != nil {
		return nil, err
	}
	if err := n.buildLinks(); err != nil {
		return nil, err
	}
	n.dense.eligible = true
	return n, nil
}

func (n *Network) validate() error {
	if err := n.Radio.Validate(); err != nil {
		return err
	}
	if err := n.Pricing.Validate(); err != nil {
		return err
	}
	if len(n.SPs) == 0 {
		return errors.New("mec: scenario has no SPs")
	}
	if n.Services <= 0 {
		return fmt.Errorf("mec: scenario has %d services, want > 0", n.Services)
	}
	for i, sp := range n.SPs {
		if sp.ID != SPID(i) {
			return fmt.Errorf("mec: SP at index %d has ID %d", i, sp.ID)
		}
		if sp.CRUPrice <= 0 {
			return fmt.Errorf("mec: SP %d has non-positive CRU price %g", i, sp.CRUPrice)
		}
		if sp.OtherCostPerCRU < 0 {
			return fmt.Errorf("mec: SP %d has negative other-cost %g", i, sp.OtherCostPerCRU)
		}
	}
	for i := range n.BSs {
		bs := &n.BSs[i]
		if bs.ID != BSID(i) {
			return fmt.Errorf("mec: BS at index %d has ID %d", i, bs.ID)
		}
		if int(bs.SP) < 0 || int(bs.SP) >= len(n.SPs) {
			return fmt.Errorf("mec: BS %d references unknown SP %d", i, bs.SP)
		}
		if len(bs.CRUCapacity) != n.Services {
			return fmt.Errorf("mec: BS %d has %d capacity entries, want %d", i, len(bs.CRUCapacity), n.Services)
		}
		for j, c := range bs.CRUCapacity {
			if c < 0 {
				return fmt.Errorf("mec: BS %d service %d has negative capacity %d", i, j, c)
			}
		}
		if bs.MaxRRBs <= 0 {
			return fmt.Errorf("mec: BS %d has non-positive RRB budget %d", i, bs.MaxRRBs)
		}
	}
	for i := range n.UEs {
		ue := &n.UEs[i]
		if ue.ID != UEID(i) {
			return fmt.Errorf("mec: UE at index %d has ID %d", i, ue.ID)
		}
		if int(ue.SP) < 0 || int(ue.SP) >= len(n.SPs) {
			return fmt.Errorf("mec: UE %d references unknown SP %d", i, ue.SP)
		}
		if int(ue.Service) < 0 || int(ue.Service) >= n.Services {
			return fmt.Errorf("mec: UE %d requests unknown service %d", i, ue.Service)
		}
		if ue.CRUDemand <= 0 {
			return fmt.Errorf("mec: UE %d has non-positive CRU demand %d", i, ue.CRUDemand)
		}
		if ue.RateBps <= 0 {
			return fmt.Errorf("mec: UE %d has non-positive rate %g", i, ue.RateBps)
		}
	}
	return nil
}

// buildLinks computes B_u, f_u, and the per-link quantities for every
// reachable service-compatible pair, and enforces the SP-profitability
// constraint (Eq. 16) on every candidate link.
//
// Instead of the all-pairs O(|UE|*|BS|) distance scan, BS positions go
// into a uniform spatial grid (cell size = coverage radius) and each UE
// examines only nearby cells, so per-UE work is proportional to local
// coverage density. Large populations additionally fan across a worker
// pool; each UE writes only its own pre-indexed slot and candidate BSs
// are visited in ascending BS order, so the result is byte-identical to
// the sequential brute-force build.
func (n *Network) buildLinks() error {
	n.links = make([][]Link, len(n.UEs))
	n.coverCount = make([]int, len(n.UEs))
	if len(n.UEs) == 0 || len(n.BSs) == 0 {
		return nil
	}
	pts := make([]geo.Point, len(n.BSs))
	for b := range n.BSs {
		pts[b] = n.BSs[b].Pos
	}
	grid := geo.NewGridIndex(pts, n.Radio.CoverageRadiusM)

	workers := runtime.GOMAXPROCS(0)
	if w := len(n.UEs) * len(n.BSs) / parallelBuildThreshold; w < workers {
		workers = w
	}
	if workers <= 1 {
		var near []int32
		arena := newLinkArena(len(n.UEs))
		for u := range n.UEs {
			var err error
			if near, err = n.buildLinksForUE(u, grid, near, arena); err != nil {
				return err
			}
		}
		return nil
	}

	// errs[u] keeps the error deterministic: the lowest-index failure is
	// returned, exactly what the sequential loop would surface first.
	errs := make([]error, len(n.UEs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var near []int32
			arena := newLinkArena(len(n.UEs)/workers + 1)
			for {
				u := int(next.Add(1)) - 1
				if u >= len(n.UEs) {
					return
				}
				near, errs[u] = n.buildLinksForUE(u, grid, near, arena)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// parallelBuildThreshold is the UE*BS product below which buildLinks runs
// sequentially: tiny scenarios finish faster than goroutines spin up.
const parallelBuildThreshold = 1 << 14

// linkArena backs the candidate slices of one build worker with a few
// large blocks instead of one organically-grown slice per UE. The
// per-UE append pattern allocated ~4 slices per UE — at a million UEs
// over a gigabyte of zeroing and growth copying, the single largest
// cost of scenario construction. Handed-out slices are capacity-capped
// three-index views, so no append through one of them can ever reach a
// neighbour's links.
type linkArena struct {
	block []Link
}

// newLinkArena sizes the first block for ~8 candidates per UE (above
// the dense-city mean of ~7, so the common case is one block), clamped
// so small scenarios stay small and huge ones amortize in ~80 MB steps.
func newLinkArena(ues int) *linkArena {
	size := 8 * ues
	if size < 256 {
		size = 256
	}
	if size > linkArenaMaxBlock {
		size = linkArenaMaxBlock
	}
	return &linkArena{block: make([]Link, 0, size)}
}

// linkArenaMaxBlock bounds block size (in links) so arena waste — at
// most one unfinished block — stays under ~100 MB at any scale.
const linkArenaMaxBlock = 1 << 20

// push appends one link to the run that began at index start, moving
// the run to a fresh block when the current one fills; it returns the
// (possibly relocated) run start.
func (a *linkArena) push(start int, l Link) int {
	if len(a.block) == cap(a.block) {
		partial := len(a.block) - start
		size := cap(a.block)
		if size < 2*partial+64 {
			// A single UE outgrowing a block only happens at tiny arena
			// sizes; keep its run contiguous.
			size = 2*partial + 64
		}
		nb := make([]Link, partial, size)
		copy(nb, a.block[start:])
		a.block = nb
		start = 0
	}
	a.block = append(a.block, l)
	return start
}

// take seals the run that began at start and returns it as a
// capacity-capped slice (nil when empty, like the append-built slices
// this replaces).
func (a *linkArena) take(start int) []Link {
	if start == len(a.block) {
		return nil
	}
	return a.block[start:len(a.block):len(a.block)]
}

// buildLinksForUE fills links[u] and coverCount[u], reusing near as the
// grid-query scratch buffer and arena as the backing store for the
// candidate slice; it returns the (possibly grown) scratch. Candidates
// come out in ascending BS order — the order Link's binary search and
// the allocators' tie-breaking both rely on.
func (n *Network) buildLinksForUE(u int, grid *geo.GridIndex, near []int32, arena *linkArena) ([]int32, error) {
	ue := &n.UEs[u]
	sp := &n.SPs[ue.SP]
	near = grid.Near(ue.Pos, n.Radio.CoverageRadiusM, near[:0])
	start := len(arena.block)
	for _, b32 := range near {
		b := int(b32)
		bs := &n.BSs[b]
		if !bs.Hosts(ue.Service) {
			continue
		}
		d := ue.Pos.DistanceTo(bs.Pos)
		if !n.Radio.Covers(d) {
			continue
		}
		shadow := n.Radio.ShadowDB(u, b)
		sinr, rrbs, err := n.Radio.LinkBudgetWith(d, ue.RateBps, shadow)
		if err != nil {
			// Covered but rate-unreachable: treat as out of range.
			continue
		}
		if rrbs > bs.MaxRRBs {
			// The UE alone would exceed the BS's whole radio budget.
			continue
		}
		price := n.PricePerCRU(ue.SP == bs.SP, d)
		if sp.CRUPrice <= price+sp.OtherCostPerCRU {
			return near, fmt.Errorf(
				"mec: Eq. 16 violated: SP %d price %g <= p_{%d,%d} %g + other cost %g",
				ue.SP, sp.CRUPrice, b, u, price, sp.OtherCostPerCRU)
		}
		start = arena.push(start, Link{
			UE:          UEID(u),
			BS:          BSID(b),
			DistanceM:   d,
			RRBs:        rrbs,
			PricePerCRU: price,
			SameSP:      ue.SP == bs.SP,
			SINR:        sinr,
			ShadowDB:    shadow,
		})
	}
	n.links[u] = arena.take(start)
	n.coverCount[u] = len(n.links[u])
	return near, nil
}

// PricePerCRU evaluates Eq. 9-10 for a (sameSP, distance) pair.
func (n *Network) PricePerCRU(sameSP bool, distanceM float64) float64 {
	b := n.Pricing.BasePrice
	base := n.Pricing.CrossSPFactor * b
	if sameSP {
		base = b
	}
	var dist float64
	if n.Pricing.Law == DistanceLinear {
		dist = n.Pricing.DistanceSigma * distanceM
	} else {
		dist = math.Pow(distanceM, n.Pricing.DistanceSigma)
	}
	return base + dist*b
}

// Candidates returns B_u: the candidate links of UE u. The returned slice
// is owned by the Network and must not be modified.
func (n *Network) Candidates(u UEID) []Link {
	return n.links[u]
}

// Link returns the precomputed link between UE u and BS b, if b is one of
// u's candidates. Candidate lists are sorted by BS, so the lookup is a
// binary search — this sits on the protocol/wire request path, where the
// old linear scan was O(f_u) per message.
func (n *Network) Link(u UEID, b BSID) (Link, bool) {
	ls := n.links[u]
	lo, hi := 0, len(ls)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ls[mid].BS < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ls) && ls[lo].BS == b {
		return ls[lo], true
	}
	return Link{}, false
}

// CoverCount returns f_u: the number of BSs that cover UE u and host its
// requested service.
func (n *Network) CoverCount(u UEID) int {
	return n.coverCount[u]
}

// TotalCandidateLinks returns the number of candidate UE-BS pairs, a
// measure of matching-problem density used in reports.
func (n *Network) TotalCandidateLinks() int {
	total := 0
	for _, ls := range n.links {
		total += len(ls)
	}
	return total
}
