package sweep

import (
	"context"
	"testing"

	"catamount/internal/graph"
)

// BenchmarkSweepReferenceGridWarm measures steady-state grid throughput:
// the 150-point reference grid through an already-compiled session, the
// number TestSweepBenchFloors gates as warm points/sec.
func BenchmarkSweepReferenceGridWarm(b *testing.B) {
	r, err := New(sharedSource, referenceSpec())
	if err != nil {
		b.Fatal(err)
	}
	// Warm: build + compile every domain outside the timed region.
	if err := r.Run(context.Background(), func(Point) error { return nil }); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Run(context.Background(), func(Point) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(r.Points()), "points/grid")
}

// BenchmarkSweepCellAmortization isolates the tentpole claim: the same
// 25-point (accelerator-amortized) grid as 25 per-point evaluations versus
// one sweep. Compare ns/op across the two benchmarks.
func BenchmarkSweepCellAmortization(b *testing.B) {
	r, err := New(sharedSource, Spec{
		Domains: []string{"wordlm"},
		Params:  []float64{1e8, 2e8, 4e8, 8e8, 1.6e9},
		Accelerators: []string{
			"target-v100-class", "a100-class", "h100-class", "tpuv3-class", "cpu-class",
		},
		Workers: 1, // isolate amortization from parallelism
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := r.Run(context.Background(), func(Point) error { return nil }); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Run(context.Background(), func(Point) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerPointEquivalent is BenchmarkSweepCellAmortization's per-point
// control: one full solve + characterization per grid point, the cost the
// sweep's cell sharing removes.
func BenchmarkPerPointEquivalent(b *testing.B) {
	a, err := sharedSource.Analyzer("wordlm")
	if err != nil {
		b.Fatal(err)
	}
	params := []float64{1e8, 2e8, 4e8, 8e8, 1.6e9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range params {
			for acc := 0; acc < 5; acc++ {
				size, err := a.SizeForParams(p)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := a.Characterize(context.Background(), size, a.Model.DefaultBatch, graph.PolicyMemGreedy); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
