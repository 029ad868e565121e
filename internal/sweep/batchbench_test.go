package sweep

import (
	"context"
	"os"
	"testing"
)

// TestBatchBenchFloors is the CI regression gate on the BENCH_pr6.json
// trajectory: the batched pipeline must hold its heap-traffic reduction
// over the PR3 scalar pipeline, and the per-op backend must stay near
// graph-backend throughput now that per-op pricing runs over pre-resolved
// op classes and deduplicated cost programs. Ceilings are conservative against 1-core
// container noise (the committed snapshot shows ~1.05x per-op ratio and
// ~850x bytes reduction); they catch structural regressions — per-point
// reallocation creeping back, per-op pricing losing its batched path —
// not scheduler jitter. Set BATCH_BENCH_OUT to also write the snapshot
// the CI bench job uploads.
func TestBatchBenchFloors(t *testing.T) {
	if testing.Short() {
		t.Skip("bench harness runs the full reference grid several times")
	}
	rep, err := RunBatchBench(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("batched %.3fs (%.0f pts/s, %.1f allocs/pt, %.0f B/pt)",
		rep.BatchedWarmSeconds, rep.BatchedPointsPerSec, rep.BatchedAllocsPerPoint,
		rep.BatchedBytesPerPoint)
	t.Logf("perop %.3fs (%.0f pts/s, %.2fx graph), bytes/pt %.0f vs pr3 %.0f (%.0fx reduction)",
		rep.PerOpWarmSeconds, rep.PerOpPointsPerSec, rep.PerOpOverGraph,
		rep.BatchedBytesPerPoint, rep.PR3BytesPerPoint, rep.BytesReduction)

	const (
		warmFloor    = 100.0 // batched points/sec; mirrors TestSweepBenchFloors
		bytesCeiling = pr3BytesPerPoint / 10.0
		peropCeiling = 1.25 // perop warm time over graph warm time
	)
	if rep.BatchedPointsPerSec < warmFloor {
		t.Errorf("batched throughput %.1f points/s below pinned floor %.0f",
			rep.BatchedPointsPerSec, warmFloor)
	}
	if rep.BatchedBytesPerPoint > bytesCeiling {
		t.Errorf("batched heap traffic %.0f B/point above pinned ceiling %.0f (10x under the PR3 scalar pipeline)",
			rep.BatchedBytesPerPoint, bytesCeiling)
	}
	if rep.PerOpOverGraph > peropCeiling {
		t.Errorf("per-op backend %.2fx graph warm time, above pinned ceiling %.2fx",
			rep.PerOpOverGraph, peropCeiling)
	}

	if path := os.Getenv("BATCH_BENCH_OUT"); path != "" {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := WriteBatchBenchReport(f, rep); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
	}
}
