package alloc

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"dmra/internal/geo"
	"dmra/internal/mec"
	"dmra/internal/obs"
	"dmra/internal/radio"
	"dmra/internal/workload"
)

// allAllocators returns one instance of every built-in allocator.
func allAllocators() []Allocator {
	return []Allocator{
		NewDMRA(DefaultDMRAConfig()),
		NewDCSP(),
		NewNonCo(),
		NewRandom(7),
		NewGreedy(),
	}
}

func defaultNet(t *testing.T, ues int, seed uint64) *mec.Network {
	t.Helper()
	cfg := workload.Default()
	cfg.UEs = ues
	net, err := cfg.Build(seed)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestByName(t *testing.T) {
	for _, name := range []string{"dmra", "dcsp", "nonco", "random", "greedy"} {
		a, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if a == nil {
			t.Errorf("ByName(%q) returned nil allocator", name)
		}
	}
	if _, err := ByName("simulated-annealing"); err == nil {
		t.Error("unknown allocator name accepted")
	}
}

func TestAllAllocatorsProduceFeasibleAssignments(t *testing.T) {
	net := defaultNet(t, 500, 11)
	for _, a := range allAllocators() {
		t.Run(a.Name(), func(t *testing.T) {
			res, err := a.Allocate(net)
			if err != nil {
				t.Fatal(err)
			}
			if err := mec.ValidateAssignment(net, res.Assignment); err != nil {
				t.Fatalf("infeasible assignment: %v", err)
			}
			if got := len(res.Assignment.ServingBS); got != 500 {
				t.Fatalf("assignment covers %d UEs, want 500", got)
			}
			if res.Stats.Iterations < 1 {
				t.Errorf("iterations = %d, want >= 1", res.Stats.Iterations)
			}
			if res.Stats.Accepts != res.Assignment.ServedCount() {
				t.Errorf("accepts = %d, served = %d; must match (no eviction)",
					res.Stats.Accepts, res.Assignment.ServedCount())
			}
		})
	}
}

func TestAllAllocatorsDeterministic(t *testing.T) {
	net := defaultNet(t, 300, 23)
	for _, a := range allAllocators() {
		t.Run(a.Name(), func(t *testing.T) {
			r1, err := a.Allocate(net)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := a.Allocate(net)
			if err != nil {
				t.Fatal(err)
			}
			for u := range r1.Assignment.ServingBS {
				if r1.Assignment.ServingBS[u] != r2.Assignment.ServingBS[u] {
					t.Fatalf("UE %d assigned to %d then %d", u,
						r1.Assignment.ServingBS[u], r2.Assignment.ServingBS[u])
				}
			}
		})
	}
}

func TestAllocateEmptyScenario(t *testing.T) {
	net := defaultNet(t, 0, 1)
	for _, a := range allAllocators() {
		res, err := a.Allocate(net)
		if err != nil {
			t.Fatalf("%s on empty scenario: %v", a.Name(), err)
		}
		if len(res.Assignment.ServingBS) != 0 {
			t.Fatalf("%s produced assignments for zero UEs", a.Name())
		}
	}
}

// TestDMRAOutperformsBaselines is the headline reproduction check: averaged
// over seeds, DMRA yields strictly more total SP profit than DCSP and NonCo
// in all four figure scenarios (iota x placement), as the paper's Figs. 2-5
// report.
func TestDMRAOutperformsBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed comparison is slow")
	}
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, iota := range []float64{2.0, 1.1} {
		for _, pl := range []workload.Placement{workload.PlacementRegular, workload.PlacementRandom} {
			cfg := workload.Default()
			cfg.UEs = 700
			cfg.Pricing.CrossSPFactor = iota
			cfg.Placement = pl
			sums := make(map[string]float64)
			for _, seed := range seeds {
				net, err := cfg.Build(seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range []string{"dmra", "dcsp", "nonco"} {
					a, err := ByName(name)
					if err != nil {
						t.Fatal(err)
					}
					res, err := a.Allocate(net)
					if err != nil {
						t.Fatal(err)
					}
					sums[name] += mec.Profit(net, res.Assignment).TotalProfit()
				}
			}
			if sums["dmra"] <= sums["dcsp"] || sums["dmra"] <= sums["nonco"] {
				t.Errorf("iota=%g placement=%s: DMRA %.0f not above DCSP %.0f and NonCo %.0f",
					iota, pl, sums["dmra"], sums["dcsp"], sums["nonco"])
			}
		}
	}
}

func TestProfitIncreasesWithUECount(t *testing.T) {
	cfg := workload.Default()
	dmra := NewDMRA(DefaultDMRAConfig())
	prev := 0.0
	for _, n := range []int{200, 400, 600, 800} {
		cfg.UEs = n
		var sum float64
		for seed := uint64(1); seed <= 4; seed++ {
			net, err := cfg.Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := dmra.Allocate(net)
			if err != nil {
				t.Fatal(err)
			}
			sum += mec.Profit(net, res.Assignment).TotalProfit()
		}
		if sum <= prev {
			t.Fatalf("profit not increasing: %0.f at %d UEs after %.0f", sum, n, prev)
		}
		prev = sum
	}
}

// --- hand-crafted scenarios for the Alg. 1 selection rules ---

// craftNetwork builds a tiny scenario with explicit entities. All UEs and
// BSs sit within coverage of each other unless placed far away.
func craftNetwork(t *testing.T, sps []mec.SP, bss []mec.BS, ues []mec.UE, services int) *mec.Network {
	t.Helper()
	rc := radio.DefaultConfig()
	rc.InterferenceMarginDB = 20
	pr := mec.Pricing{BasePrice: 1, CrossSPFactor: 2, DistanceSigma: 0.004, Law: mec.DistanceLinear}
	net, err := mec.NewNetwork(sps, bss, ues, services, rc, pr)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func spList(n int) []mec.SP {
	sps := make([]mec.SP, n)
	for i := range sps {
		sps[i] = mec.SP{ID: mec.SPID(i), Name: "sp", CRUPrice: 6, OtherCostPerCRU: 1}
	}
	return sps
}

func TestDMRASamePriorityWinsContention(t *testing.T) {
	// One BS (SP 0) with room for a single UE's CRUs; two UEs request the
	// same service at the same distance: UE 0 subscribes to SP 1, UE 1 to
	// SP 0. The BS must pick its own subscriber (Alg. 1 lines 13-16).
	bss := []mec.BS{
		{ID: 0, SP: 0, Pos: geo.Point{}, CRUCapacity: []int{5}, MaxRRBs: 55},
	}
	ues := []mec.UE{
		{ID: 0, SP: 1, Pos: geo.Point{X: 100}, Service: 0, CRUDemand: 4, RateBps: 2e6},
		{ID: 1, SP: 0, Pos: geo.Point{X: -100}, Service: 0, CRUDemand: 4, RateBps: 2e6},
	}
	net := craftNetwork(t, spList(2), bss, ues, 1)

	res, err := NewDMRA(DefaultDMRAConfig()).Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment.ServingBS[1] != 0 {
		t.Errorf("same-SP UE 1 not served (got BS %d)", res.Assignment.ServingBS[1])
	}
	if res.Assignment.ServingBS[0] != mec.CloudBS {
		t.Errorf("cross-SP UE 0 should be forwarded, got BS %d", res.Assignment.ServingBS[0])
	}

	// With SP priority disabled, the footprint tie-break decides; both UEs
	// are identical, so the lowest ID wins.
	res, err = NewDMRA(DMRAConfig{Rho: 250, FuTieBreak: true}).Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment.ServingBS[0] != 0 {
		t.Errorf("without SP priority, UE 0 (lowest ID) should win, got %d", res.Assignment.ServingBS[0])
	}
}

func TestDMRAFuTieBreak(t *testing.T) {
	// BS 0 has capacity for one task of service 0; UE 0 can also reach
	// BS 1 (f=2) while UE 1 can only reach BS 0 (f=1): the scarce UE 1
	// must win the contested BS 0.
	bss := []mec.BS{
		{ID: 0, SP: 0, Pos: geo.Point{}, CRUCapacity: []int{5}, MaxRRBs: 55},
		{ID: 1, SP: 0, Pos: geo.Point{X: 600}, CRUCapacity: []int{5}, MaxRRBs: 55},
	}
	ues := []mec.UE{
		// UE 0 sits between the BSs: reaches both.
		{ID: 0, SP: 0, Pos: geo.Point{X: 300}, Service: 0, CRUDemand: 4, RateBps: 2e6},
		// UE 1 reaches only BS 0.
		{ID: 1, SP: 0, Pos: geo.Point{X: -300}, Service: 0, CRUDemand: 4, RateBps: 2e6},
	}
	net := craftNetwork(t, spList(1), bss, ues, 1)
	if net.CoverCount(0) != 2 || net.CoverCount(1) != 1 {
		t.Fatalf("coverage setup wrong: f0=%d f1=%d", net.CoverCount(0), net.CoverCount(1))
	}

	res, err := NewDMRA(DefaultDMRAConfig()).Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	// Both UEs must be served: UE 1 on the contested BS 0, UE 0 wherever.
	if res.Assignment.ServingBS[1] == mec.CloudBS {
		t.Error("scarce UE 1 forwarded to cloud")
	}
	if res.Assignment.ServedCount() != 2 {
		t.Errorf("served %d, want 2 (f_u tie-break should avoid stranding)", res.Assignment.ServedCount())
	}
}

func TestDMRAFootprintTieBreak(t *testing.T) {
	// Same SP, same f_u: the BS prefers the UE with the smaller
	// n_{u,i} + c_j^u footprint. UE 0 demands 5 CRUs, UE 1 demands 3.
	bss := []mec.BS{
		{ID: 0, SP: 0, Pos: geo.Point{}, CRUCapacity: []int{6}, MaxRRBs: 55},
	}
	ues := []mec.UE{
		{ID: 0, SP: 0, Pos: geo.Point{X: 100}, Service: 0, CRUDemand: 5, RateBps: 2e6},
		{ID: 1, SP: 0, Pos: geo.Point{X: -100}, Service: 0, CRUDemand: 3, RateBps: 2e6},
	}
	net := craftNetwork(t, spList(1), bss, ues, 1)

	res, err := NewDMRA(DefaultDMRAConfig()).Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment.ServingBS[1] != 0 {
		t.Errorf("small-footprint UE 1 not served, got %v", res.Assignment.ServingBS)
	}
	if res.Assignment.ServingBS[0] != mec.CloudBS {
		t.Errorf("large-footprint UE 0 should lose (capacity 6 < 5+3), got BS %d", res.Assignment.ServingBS[0])
	}
}

func TestDMRAPreferencePrefersCheaperBS(t *testing.T) {
	// Two identical BSs, one same-SP and one cross-SP at equal distance:
	// v_{u,i} must rank the same-SP BS lower (better).
	bss := []mec.BS{
		{ID: 0, SP: 0, Pos: geo.Point{X: -100}, CRUCapacity: []int{100}, MaxRRBs: 55},
		{ID: 1, SP: 1, Pos: geo.Point{X: 100}, CRUCapacity: []int{100}, MaxRRBs: 55},
	}
	ues := []mec.UE{
		{ID: 0, SP: 0, Pos: geo.Point{}, Service: 0, CRUDemand: 4, RateBps: 2e6},
	}
	net := craftNetwork(t, spList(2), bss, ues, 1)
	d := NewDMRA(DefaultDMRAConfig())
	s := mec.NewState(net)
	l0, _ := net.Link(0, 0)
	l1, _ := net.Link(0, 1)
	if v0, v1 := d.Preference(s, l0), d.Preference(s, l1); v0 >= v1 {
		t.Errorf("same-SP preference %v >= cross-SP %v", v0, v1)
	}

	res, err := d.Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment.ServingBS[0] != 0 {
		t.Errorf("UE assigned to BS %d, want own-SP BS 0", res.Assignment.ServingBS[0])
	}
}

func TestDMRAPreferenceExhaustedBSInfinite(t *testing.T) {
	bss := []mec.BS{
		{ID: 0, SP: 0, Pos: geo.Point{}, CRUCapacity: []int{4}, MaxRRBs: 55},
	}
	ues := []mec.UE{
		{ID: 0, SP: 0, Pos: geo.Point{X: 100}, Service: 0, CRUDemand: 4, RateBps: 2e6},
	}
	net := craftNetwork(t, spList(1), bss, ues, 1)
	d := NewDMRA(DefaultDMRAConfig())
	s := mec.NewState(net)
	// Exhaust the BS completely: both CRUs and RRBs to zero is not
	// reachable via Assign here, so check the formula directly with a
	// zero-capacity denominator by draining CRUs and checking large v.
	if err := s.Assign(0, 0); err != nil {
		t.Fatal(err)
	}
	l, _ := net.Link(0, 0)
	v := d.Preference(s, l)
	if math.IsInf(v, 1) {
		return // fully exhausted: acceptable
	}
	// Partially exhausted: preference must be finite but worse than fresh.
	fresh := NewDMRA(DefaultDMRAConfig()).Preference(mec.NewState(net), l)
	if v <= fresh {
		t.Errorf("preference after exhaustion %v <= fresh %v", v, fresh)
	}
}

func TestDMRARhoSteersTowardSpareCapacity(t *testing.T) {
	// Two same-SP BSs at equal distance; BS 1 has far less spare capacity.
	// With a large rho the UE must pick the resource-rich BS 0.
	bss := []mec.BS{
		{ID: 0, SP: 0, Pos: geo.Point{X: -100}, CRUCapacity: []int{150}, MaxRRBs: 55},
		{ID: 1, SP: 0, Pos: geo.Point{X: 100}, CRUCapacity: []int{10}, MaxRRBs: 55},
	}
	ues := []mec.UE{
		{ID: 0, SP: 0, Pos: geo.Point{}, Service: 0, CRUDemand: 4, RateBps: 2e6},
	}
	net := craftNetwork(t, spList(1), bss, ues, 1)
	res, err := NewDMRA(DMRAConfig{Rho: 5000, SPPriority: true, FuTieBreak: true}).Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment.ServingBS[0] != 0 {
		t.Errorf("UE assigned to BS %d, want resource-rich BS 0", res.Assignment.ServingBS[0])
	}
}

func TestDMRARadioTrimming(t *testing.T) {
	// Two services on one BS with only enough RRBs for one UE: both UEs
	// are selected (one per service) but the radio budget forces trimming.
	bss := []mec.BS{
		{ID: 0, SP: 0, Pos: geo.Point{}, CRUCapacity: []int{100, 100}, MaxRRBs: 1},
	}
	ues := []mec.UE{
		{ID: 0, SP: 0, Pos: geo.Point{X: 50}, Service: 0, CRUDemand: 4, RateBps: 2e6},
		{ID: 1, SP: 0, Pos: geo.Point{X: -50}, Service: 1, CRUDemand: 4, RateBps: 2e6},
	}
	net := craftNetwork(t, spList(1), bss, ues, 2)
	l, ok := net.Link(0, 0)
	if !ok || l.RRBs != 1 {
		t.Fatalf("setup: want 1-RRB links, got %+v ok=%v", l, ok)
	}

	res, err := NewDMRA(DefaultDMRAConfig()).Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment.ServedCount() != 1 {
		t.Fatalf("served %d, want exactly 1 (RRB budget)", res.Assignment.ServedCount())
	}
	if res.Stats.Rejects == 0 {
		t.Error("trimming should have recorded a reject")
	}
	if err := mec.ValidateAssignment(net, res.Assignment); err != nil {
		t.Fatal(err)
	}
}

func TestUEWithNoCandidatesGoesToCloud(t *testing.T) {
	bss := []mec.BS{
		{ID: 0, SP: 0, Pos: geo.Point{}, CRUCapacity: []int{100}, MaxRRBs: 55},
	}
	ues := []mec.UE{
		{ID: 0, SP: 0, Pos: geo.Point{X: 5000}, Service: 0, CRUDemand: 4, RateBps: 2e6},
	}
	net := craftNetwork(t, spList(1), bss, ues, 1)
	for _, a := range allAllocators() {
		res, err := a.Allocate(net)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if res.Assignment.ServingBS[0] != mec.CloudBS {
			t.Errorf("%s served an unreachable UE", a.Name())
		}
	}
}

func TestNonCoPicksMaxSINR(t *testing.T) {
	// Near cross-SP BS vs far same-SP BS: NonCo must pick the near one
	// regardless of price.
	bss := []mec.BS{
		{ID: 0, SP: 1, Pos: geo.Point{X: 50}, CRUCapacity: []int{100}, MaxRRBs: 55},
		{ID: 1, SP: 0, Pos: geo.Point{X: 400}, CRUCapacity: []int{100}, MaxRRBs: 55},
	}
	ues := []mec.UE{
		{ID: 0, SP: 0, Pos: geo.Point{}, Service: 0, CRUDemand: 4, RateBps: 2e6},
	}
	net := craftNetwork(t, spList(2), bss, ues, 1)
	res, err := NewNonCo().Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment.ServingBS[0] != 0 {
		t.Errorf("NonCo assigned to BS %d, want max-SINR BS 0", res.Assignment.ServingBS[0])
	}
}

func TestNonCoOneShotStrandsOverflow(t *testing.T) {
	// Two UEs whose max-SINR BS is the same tiny BS; a second BS has room
	// but NonCo must NOT renegotiate: the loser goes to the cloud.
	bss := []mec.BS{
		{ID: 0, SP: 0, Pos: geo.Point{}, CRUCapacity: []int{4}, MaxRRBs: 55},
		{ID: 1, SP: 0, Pos: geo.Point{X: 440}, CRUCapacity: []int{100}, MaxRRBs: 55},
	}
	ues := []mec.UE{
		{ID: 0, SP: 0, Pos: geo.Point{X: 10}, Service: 0, CRUDemand: 4, RateBps: 2e6},
		{ID: 1, SP: 0, Pos: geo.Point{X: -10}, Service: 0, CRUDemand: 4, RateBps: 2e6},
	}
	net := craftNetwork(t, spList(1), bss, ues, 1)

	res, err := NewNonCo().Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment.ServedCount() != 1 {
		t.Fatalf("NonCo served %d, want 1 (no renegotiation)", res.Assignment.ServedCount())
	}

	// DMRA on the same instance redirects the loser to BS 1.
	resD, err := NewDMRA(DefaultDMRAConfig()).Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	if resD.Assignment.ServedCount() != 2 {
		t.Fatalf("DMRA served %d, want 2 (redirects overflow)", resD.Assignment.ServedCount())
	}
}

func TestDCSPPrefersLowOccupation(t *testing.T) {
	// Two same-SP BSs at equal distance, one half-occupied via smaller
	// capacity: DCSP's UE proposes to the lower-occupation (bigger) BS.
	bss := []mec.BS{
		{ID: 0, SP: 0, Pos: geo.Point{X: -100}, CRUCapacity: []int{150}, MaxRRBs: 55},
		{ID: 1, SP: 0, Pos: geo.Point{X: 100}, CRUCapacity: []int{10}, MaxRRBs: 55},
	}
	ues := []mec.UE{
		{ID: 0, SP: 0, Pos: geo.Point{}, Service: 0, CRUDemand: 4, RateBps: 2e6},
	}
	net := craftNetwork(t, spList(1), bss, ues, 1)
	s := mec.NewState(net)
	if Occupation(s, 0) != 0 || Occupation(s, 1) != 0 {
		t.Fatal("fresh BSs should have zero occupation")
	}
	if err := s.Assign(0, 1); err != nil {
		t.Fatal(err)
	}
	if Occupation(s, 1) <= Occupation(s, 0) {
		t.Error("assignment did not raise occupation")
	}
	s.Unassign(0)

	res, err := NewDCSP().Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment.ServedCount() != 1 {
		t.Fatal("DCSP failed to serve the UE")
	}
}

func TestGreedyMarginOrdering(t *testing.T) {
	// Greedy must realize at least as much profit as Random on any
	// scenario (it is a profit-sorted variant of the same feasibility
	// search).
	net := defaultNet(t, 400, 31)
	g, err := NewGreedy().Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRandom(3).Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	pg := mec.Profit(net, g.Assignment).TotalProfit()
	pr := mec.Profit(net, r.Assignment).TotalProfit()
	if pg <= pr {
		t.Errorf("greedy %0.f <= random %.0f", pg, pr)
	}
}

func TestMargin(t *testing.T) {
	net := defaultNet(t, 50, 5)
	for u := 0; u < 50; u++ {
		for _, l := range net.Candidates(mec.UEID(u)) {
			m := Margin(net, l)
			if m <= 0 {
				t.Fatalf("Eq. 16 guarantees positive margins, got %v on link %+v", m, l)
			}
			ue := net.UEs[l.UE]
			sp := net.SPs[ue.SP]
			want := float64(ue.CRUDemand) * (sp.CRUPrice - sp.OtherCostPerCRU - l.PricePerCRU)
			if math.Abs(m-want) > 1e-9 {
				t.Fatalf("margin %v, want %v", m, want)
			}
		}
	}
}

func TestRandomSeedsDiffer(t *testing.T) {
	net := defaultNet(t, 200, 17)
	r1, err := NewRandom(1).Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRandom(2).Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for u := range r1.Assignment.ServingBS {
		if r1.Assignment.ServingBS[u] != r2.Assignment.ServingBS[u] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical random assignments")
	}
}

func TestStatsProposalsCounted(t *testing.T) {
	net := defaultNet(t, 100, 13)
	res, err := NewDMRA(DefaultDMRAConfig()).Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Proposals < res.Stats.Accepts {
		t.Errorf("proposals %d < accepts %d", res.Stats.Proposals, res.Stats.Accepts)
	}
	if res.Stats.Proposals == 0 {
		t.Error("no proposals recorded on a non-trivial scenario")
	}
}

func TestIterationGuardReported(t *testing.T) {
	// The iteration guard is an internal-bug backstop; it must never trip
	// on real scenarios of any size.
	for _, n := range []int{1, 10, 1000} {
		net := defaultNet(t, n, 3)
		if _, err := NewDMRA(DefaultDMRAConfig()).Allocate(net); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestStableMatchFeasibleAndCompetitive(t *testing.T) {
	net := defaultNet(t, 500, 41)
	res, err := NewStableMatch().Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := mec.ValidateAssignment(net, res.Assignment); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	sm := mec.Profit(net, res.Assignment).TotalProfit()
	rnd, err := NewRandom(2).Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	if rp := mec.Profit(net, rnd.Assignment).TotalProfit(); sm <= rp {
		t.Errorf("stable match %v not above random %v", sm, rp)
	}
	// DMRA's dynamic preferences should beat the static textbook matching.
	dm, err := NewDMRA(DefaultDMRAConfig()).Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	if dp := mec.Profit(net, dm.Assignment).TotalProfit(); dp <= sm*0.95 {
		t.Errorf("DMRA %v not clearly competitive with stable match %v", dp, sm)
	}
}

func TestStableMatchDeterministic(t *testing.T) {
	net := defaultNet(t, 300, 43)
	a, err := NewStableMatch().Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStableMatch().Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	for u := range a.Assignment.ServingBS {
		if a.Assignment.ServingBS[u] != b.Assignment.ServingBS[u] {
			t.Fatalf("UE %d differs across runs", u)
		}
	}
}

func TestStableMatchByName(t *testing.T) {
	a, err := ByName("stablematch")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "StableMatch" {
		t.Fatalf("name = %q", a.Name())
	}
}

func TestLocalSearchImprovesOnGreedy(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		net := defaultNet(t, 700, seed)
		g, err := NewGreedy().Allocate(net)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := NewLocalSearch().Allocate(net)
		if err != nil {
			t.Fatal(err)
		}
		if err := mec.ValidateAssignment(net, ls.Assignment); err != nil {
			t.Fatalf("seed %d: infeasible: %v", seed, err)
		}
		gp := mec.Profit(net, g.Assignment).TotalProfit()
		lp := mec.Profit(net, ls.Assignment).TotalProfit()
		if lp < gp-1e-9 {
			t.Errorf("seed %d: local search %v below its greedy seed %v", seed, lp, gp)
		}
	}
}

func TestLocalSearchDeterministic(t *testing.T) {
	net := defaultNet(t, 400, 47)
	a, err := NewLocalSearch().Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLocalSearch().Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	for u := range a.Assignment.ServingBS {
		if a.Assignment.ServingBS[u] != b.Assignment.ServingBS[u] {
			t.Fatalf("UE %d differs across runs", u)
		}
	}
}

func TestLocalSearchPassCap(t *testing.T) {
	net := defaultNet(t, 300, 49)
	ls := &LocalSearch{MaxPasses: 1}
	res, err := ls.Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	if err := mec.ValidateAssignment(net, res.Assignment); err != nil {
		t.Fatal(err)
	}
}

func TestAuctionFeasibleAndCompetitive(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		net := defaultNet(t, 700, seed)
		res, err := NewAuction().Allocate(net)
		if err != nil {
			t.Fatal(err)
		}
		if err := mec.ValidateAssignment(net, res.Assignment); err != nil {
			t.Fatalf("seed %d: infeasible: %v", seed, err)
		}
		ap := mec.Profit(net, res.Assignment).TotalProfit()
		rnd, err := NewRandom(seed).Allocate(net)
		if err != nil {
			t.Fatal(err)
		}
		if rp := mec.Profit(net, rnd.Assignment).TotalProfit(); ap <= rp {
			t.Errorf("seed %d: auction %v not above random %v", seed, ap, rp)
		}
	}
}

func TestAuctionPricesClearCongestion(t *testing.T) {
	// A contested tiny BS next to a spare one: the auction must end with
	// both served (the loser priced out to the alternative).
	bss := []mec.BS{
		{ID: 0, SP: 0, Pos: geo.Point{}, CRUCapacity: []int{4}, MaxRRBs: 55},
		{ID: 1, SP: 0, Pos: geo.Point{X: 300}, CRUCapacity: []int{100}, MaxRRBs: 55},
	}
	ues := []mec.UE{
		{ID: 0, SP: 0, Pos: geo.Point{X: 10}, Service: 0, CRUDemand: 4, RateBps: 2e6},
		{ID: 1, SP: 0, Pos: geo.Point{X: -10}, Service: 0, CRUDemand: 4, RateBps: 2e6},
	}
	net := craftNetwork(t, spList(1), bss, ues, 1)
	res, err := NewAuction().Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment.ServedCount() != 2 {
		t.Fatalf("auction served %d, want 2 (price should redirect the loser)", res.Assignment.ServedCount())
	}
}

func TestAuctionDeterministic(t *testing.T) {
	net := defaultNet(t, 400, 53)
	a, err := NewAuction().Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewAuction().Allocate(net)
	if err != nil {
		t.Fatal(err)
	}
	for u := range a.Assignment.ServingBS {
		if a.Assignment.ServingBS[u] != b.Assignment.ServingBS[u] {
			t.Fatalf("UE %d differs across runs", u)
		}
	}
}

func TestAuctionEpsilonStepVariants(t *testing.T) {
	net := defaultNet(t, 500, 59)
	for _, eps := range []float64{0.1, 1, 5} {
		a := &Auction{EpsilonStep: eps}
		res, err := a.Allocate(net)
		if err != nil {
			t.Fatalf("eps=%g: %v", eps, err)
		}
		if err := mec.ValidateAssignment(net, res.Assignment); err != nil {
			t.Fatalf("eps=%g: %v", eps, err)
		}
	}
}

// TestObservedArenaBatchedTraceMatchesLegacy pins the arena's batched
// event emission against the legacy driver's one-Event-per-action path
// on a run large enough to fill the event buffer mid-round: the JSONL
// traces (Seqs included) and the per-kind counters must be identical.
func TestObservedArenaBatchedTraceMatchesLegacy(t *testing.T) {
	net, err := workload.DenseCity().Scale(3).Build(1)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	run := func(d *DMRA) (string, string, int64) {
		var trace, counters bytes.Buffer
		reg := obs.NewRegistry()
		sink := obs.NewSink(&trace, 16)
		if _, err := d.WithObserver(obs.NewRecorder(reg, sink)).Allocate(net); err != nil {
			t.Fatalf("allocate: %v", err)
		}
		if err := sink.Err(); err != nil {
			t.Fatalf("trace writer: %v", err)
		}
		for _, name := range []string{"dmra_rounds_total", "dmra_proposals_total", "dmra_accepts_total",
			`dmra_rejects_total{type="trim"}`, "dmra_cloud_fallbacks_total"} {
			fmt.Fprintf(&counters, "%s %d\n", name, reg.Counter(name).Value())
		}
		return trace.String(), counters.String(), sink.Total()
	}
	arenaTrace, arenaCounters, total := run(NewDMRA(DefaultDMRAConfig()).WithProposeWorkers(2))
	if total <= eventFlushLen {
		t.Fatalf("run emitted %d events, want more than one %d-event buffer", total, eventFlushLen)
	}
	legacyTrace, legacyCounters, _ := run(NewDMRA(DefaultDMRAConfig()).ForceLegacy())
	if arenaCounters != legacyCounters {
		t.Fatalf("counters differ:\narena\n%s\nlegacy\n%s", arenaCounters, legacyCounters)
	}
	if arenaTrace != legacyTrace {
		t.Fatal("arena JSONL trace differs from the legacy driver's")
	}
}
