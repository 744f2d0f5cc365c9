package alloc

import "dmra/internal/workload"

// GenScenarioForTest exposes the fuzz scenario generator to external test
// packages: the differential fuzz target lives in package alloc_test so it
// can import internal/protocol without an import cycle.
func GenScenarioForTest(seed uint64) workload.Config { return fuzzScenario(seed) }

// ForceNaive switches d to the reference implementation (full Eq. 17 sweep
// per proposal, fresh buffers per round) and returns d for chaining.
func (d *DMRA) ForceNaive() *DMRA {
	d.naive = d.allocateNaive
	return d
}
