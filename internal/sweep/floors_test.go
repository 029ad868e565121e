package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// referenceSpec is the fixed grid the floors and benchmarks run: all five
// domains × three parameter targets × two subbatches × the full five-entry
// accelerator catalog — 150 points, 30 characterizations, 15 size solves.
// The committed BENCH_pr*.json history was recorded on it.
func referenceSpec() Spec {
	return Spec{
		Params:     []float64{5e7, 2e8, 1e9},
		Subbatches: []float64{32, 128},
		Accelerators: []string{
			"target-v100-class", "a100-class", "h100-class", "tpuv3-class", "cpu-class",
		},
	}
}

// pr3BytesPerPoint is the committed BENCH_pr3.json bytes_per_point of the
// scalar pipeline on the reference grid — the baseline the Runner's heap
// traffic is measured against.
const pr3BytesPerPoint = 174483.84

// floorPairs is how many interleaved graph/per-op run pairs the floors
// time.
const floorPairs = 9

// timedRun runs a runner once, returning its wall time with its
// allocs/point and bytes/point. A point that errors fails the run.
func timedRun(ctx context.Context, r *Runner) (secs, allocsPerPoint, bytesPerPoint float64, err error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	if err := r.Run(ctx, func(p Point) error {
		if p.Error != "" {
			return fmt.Errorf("reference grid point %d failed: %s", p.Seq, p.Error)
		}
		return nil
	}); err != nil {
		return 0, 0, 0, err
	}
	secs = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	allocsPerPoint = float64(ms1.Mallocs-ms0.Mallocs) / float64(r.Points())
	bytesPerPoint = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(r.Points())
	return secs, allocsPerPoint, bytesPerPoint, nil
}

// timedPairs times the graph and per-op runners in interleaved pairs, back
// to back. It returns each backend's best wall time (the graph one with
// its allocs/point and bytes/point) and the median over pairs of the
// per-op/graph time ratio: a slow spell on a shared host then slows both
// halves of a pair, where separate best-of runs let it land on one
// backend only.
func timedPairs(ctx context.Context, graphRunner, peropRunner *Runner) (
	graphBest, allocsPerPoint, bytesPerPoint, peropBest, ratio float64, err error) {

	ratios := make([]float64, 0, floorPairs)
	for pair := 0; pair < floorPairs; pair++ {
		g, allocs, bytes, err := timedRun(ctx, graphRunner)
		if err != nil {
			return 0, 0, 0, 0, 0, err
		}
		p, _, _, err := timedRun(ctx, peropRunner)
		if err != nil {
			return 0, 0, 0, 0, 0, err
		}
		if pair == 0 || g < graphBest {
			graphBest, allocsPerPoint, bytesPerPoint = g, allocs, bytes
		}
		if pair == 0 || p < peropBest {
			peropBest = p
		}
		ratios = append(ratios, p/g)
	}
	sort.Float64s(ratios)
	return graphBest, allocsPerPoint, bytesPerPoint, peropBest, ratios[len(ratios)/2], nil
}

// gridFloors is one measurement of the reference grid under both
// step-time backends, shared by the three floor tests below.
type gridFloors struct {
	cold, graphBest, peropBest float64 // seconds
	graphRate, peropRate       float64 // points/sec of the best runs
	allocs, bytes              float64 // per point, of the best graph run
	ratio                      float64 // per-op/graph time, median of the pairs
}

var (
	gridFloorsOnce sync.Once
	gridFloorsVal  gridFloors
	gridFloorsErr  error
)

// measureGridFloors measures the reference grid once per test binary, over
// one fresh source: the first graph run is the cold run (it builds and
// compiles every domain), one per-op run fills the per-op runner's
// sessions, then floorPairs interleaved graph/per-op pairs are timed warm.
// Bounds read from it are conservative against 1-core container noise (a
// 1-core container measured ~960 warm points/s, ~2.7 allocs/point and a
// ~1.05x per-op ratio); they catch structural regressions — recompiling
// per point, losing cell amortization, per-point reallocation creeping
// back, per-op pricing losing its pre-resolved op classes — not scheduler
// jitter.
func measureGridFloors(t *testing.T) gridFloors {
	t.Helper()
	if testing.Short() {
		t.Skip("runs the full reference grid 20 times")
	}
	gridFloorsOnce.Do(func() {
		gridFloorsVal, gridFloorsErr = runGridFloors(context.Background())
		if gridFloorsErr == nil {
			f := gridFloorsVal
			t.Logf("cold %.2fs (%.1fx warm); graph %.3fs (%.0f pts/s, %.1f allocs/pt, %.0f B/pt); "+
				"perop %.3fs (%.0f pts/s, %.2fx graph best, %.2fx median pair); GOMAXPROCS %d",
				f.cold, f.cold/f.graphBest, f.graphBest, f.graphRate, f.allocs, f.bytes,
				f.peropBest, f.peropRate, f.peropBest/f.graphBest, f.ratio, runtime.GOMAXPROCS(0))
		}
	})
	if gridFloorsErr != nil {
		t.Fatal(gridFloorsErr)
	}
	return gridFloorsVal
}

func runGridFloors(ctx context.Context) (gridFloors, error) {
	var f gridFloors
	src := newBuildSource()
	peropSpec := referenceSpec()
	peropSpec.CostModel = "perop"
	graphRunner, err := New(src, referenceSpec())
	if err != nil {
		return f, err
	}
	peropRunner, err := New(src, peropSpec)
	if err != nil {
		return f, err
	}
	if f.cold, _, _, err = timedRun(ctx, graphRunner); err != nil {
		return f, err
	}
	if _, _, _, err = timedRun(ctx, peropRunner); err != nil {
		return f, err
	}
	f.graphBest, f.allocs, f.bytes, f.peropBest, f.ratio, err = timedPairs(ctx, graphRunner, peropRunner)
	if err != nil {
		return f, err
	}
	pts := float64(graphRunner.Points())
	f.graphRate, f.peropRate = pts/f.graphBest, pts/f.peropBest
	return f, nil
}

// warmFloor is the graph backend's points/sec floor on its best warm run.
const warmFloor = 100.0

// TestSweepBenchFloors gates warm graph throughput, allocations per point
// and the cold/warm ratio that shows build+compile is amortized.
func TestSweepBenchFloors(t *testing.T) {
	f := measureGridFloors(t)
	const (
		allocCeiling = 64.0 // allocs/point of the best warm graph run
		coldOverWarm = 2.0  // cold run over best warm graph run
	)
	if f.graphRate < warmFloor {
		t.Errorf("warm throughput %.1f points/s below pinned floor %.0f", f.graphRate, warmFloor)
	}
	if f.allocs > allocCeiling {
		t.Errorf("allocations %.1f/point above pinned ceiling %.0f", f.allocs, allocCeiling)
	}
	if f.cold/f.graphBest < coldOverWarm {
		t.Errorf("cold/warm ratio %.1fx below %.0fx: grid no longer amortizes model build+compile",
			f.cold/f.graphBest, coldOverWarm)
	}
}

// TestCostModelBenchFloors gates both backends' warm throughput and bounds
// the per-op overhead, best run over best run.
func TestCostModelBenchFloors(t *testing.T) {
	f := measureGridFloors(t)
	const (
		peropFloor  = 40.0 // per-op points/sec, best warm run
		maxOverhead = 30.0 // per-op/graph time, best run over best run
	)
	if f.graphRate < warmFloor {
		t.Errorf("graph backend %.1f points/s below pinned floor %.0f", f.graphRate, warmFloor)
	}
	if f.peropRate < peropFloor {
		t.Errorf("per-op backend %.1f points/s below pinned floor %.0f", f.peropRate, peropFloor)
	}
	if f.peropBest/f.graphBest > maxOverhead {
		t.Errorf("per-op overhead %.1fx above pinned ceiling %.0fx", f.peropBest/f.graphBest, maxOverhead)
	}
}

// TestBatchBenchFloors gates the batched pipeline's heap traffic against
// the PR3 scalar pipeline and keeps the per-op backend near graph speed,
// as the median over the interleaved pairs.
func TestBatchBenchFloors(t *testing.T) {
	f := measureGridFloors(t)
	const (
		bytesCeiling = pr3BytesPerPoint / 10.0
		pairCeiling  = 1.25 // per-op/graph time, median of the pairs
	)
	if f.graphRate < warmFloor {
		t.Errorf("batched throughput %.1f points/s below pinned floor %.0f", f.graphRate, warmFloor)
	}
	if f.bytes > bytesCeiling {
		t.Errorf("heap traffic %.0f B/point above pinned ceiling %.0f (10x under the PR3 scalar pipeline)",
			f.bytes, bytesCeiling)
	}
	if f.ratio > pairCeiling {
		t.Errorf("per-op backend %.2fx graph warm time, above pinned ceiling %.2fx", f.ratio, pairCeiling)
	}
}
