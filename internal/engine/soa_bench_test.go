package engine

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"dmra/internal/workload"
)

// BenchmarkArenaReset times the arena's between-run reset alone at the
// 100k dense-city rung. With the lazy dirty-region scheme it never walks
// the candidate links; it is O(UEs + BSs*Services) stamp and ledger
// work, and the steady state must not allocate.
func BenchmarkArenaReset(b *testing.B) {
	net, err := workload.DenseCity().Scale(10).Build(1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	var a Arena
	// One full run sizes every arena array; the timed loop measures only
	// the reuse-path reset.
	if _, err := a.Run(net, cfg, 0, nil); err != nil {
		b.Fatal(err)
	}
	csr := net.Dense()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.reset(csr, cfg)
	}
}

// TestWriteArenaBenchBaseline appends the BenchmarkArenaReset ns/op and
// allocs/op to the file named by BENCH_BASELINE (skipped when unset).
// Run via `make bench`; scripts/benchdiff.sh compares the last two
// records and fails on regression.
func TestWriteArenaBenchBaseline(t *testing.T) {
	path := os.Getenv("BENCH_BASELINE")
	if path == "" {
		t.Skip("BENCH_BASELINE not set")
	}
	net, err := workload.DenseCity().Scale(10).Build(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	var a Arena
	if _, err := a.Run(net, cfg, 0, nil); err != nil {
		t.Fatal(err)
	}
	csr := net.Dense()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.reset(csr, cfg)
		}
	})
	baseline := map[string]any{
		"time":       time.Now().UTC().Format(time.RFC3339),
		"benchmark":  "BenchmarkArenaReset",
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"ns_op":      r.NsPerOp(),
		"allocs_op":  r.AllocsPerOp(),
	}
	data, err := json.Marshal(baseline)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(append(data, '\n')); err != nil {
		t.Fatal(err)
	}
	t.Logf("appended BenchmarkArenaReset baseline to %s", path)
}
