package engine_test

import (
	"dmra/internal/rng"
	"dmra/internal/workload"
)

// genScenario draws a randomized-but-buildable workload shape, mirroring
// the differential-fuzz generator in internal/alloc's tests.
func genScenario(seed uint64) workload.Config {
	src := rng.New(seed).SplitLabeled("engine-scenario")
	cfg := workload.Default()
	cfg.SPs = src.IntBetween(1, 5)
	cfg.BSsPerSP = src.IntBetween(1, 6)
	cfg.Services = src.IntBetween(1, 8)
	cfg.ServicesPerBS = src.IntBetween(1, cfg.Services)
	cfg.UEs = src.IntBetween(0, 120)
	cfg.Radio.CoverageRadiusM = src.FloatBetween(150, 500)
	if src.Float64() < 0.5 {
		cfg.Placement = workload.PlacementRandom
	}
	cfg.SPCRUPrice = 12
	return cfg
}
