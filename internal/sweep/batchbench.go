package sweep

import (
	"context"
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"time"
)

// This file is the row-batched sweep benchmark harness behind
// BENCH_pr6.json: it runs the fixed reference grid through the production
// Runner path under both step-time backends, and reports warm throughput,
// the per-op-vs-graph warm ratio, and the heap bytes per point against the
// PR3 scalar-pipeline baseline. The CI bench job publishes the report and
// gates on pinned floors (TestBatchBenchFloors); cmd/sweep -bench-batch
// writes it locally.

// BatchBenchSchema versions the report format.
const BatchBenchSchema = "catamount-batchbench/v2"

// pr3BytesPerPoint is the committed BENCH_pr3.json bytes_per_point of the
// scalar pipeline on this same reference grid — the baseline the batched
// path's heap traffic is measured against.
const pr3BytesPerPoint = 174483.84

// BatchBenchReport is one harness run. Everything is timed warm (models
// built and compiled before any timed region).
type BatchBenchReport struct {
	Schema    string `json:"schema"`
	Grid      string `json:"grid"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`

	GridPoints int `json:"grid_points"`

	// Batched pipeline, default graph backend.
	BatchedWarmSeconds    float64 `json:"batched_warm_seconds"`
	BatchedPointsPerSec   float64 `json:"batched_points_per_sec"`
	BatchedAllocsPerPoint float64 `json:"batched_allocs_per_point"`
	BatchedBytesPerPoint  float64 `json:"batched_bytes_per_point"`

	// Batched pipeline, per-op roofline backend.
	PerOpWarmSeconds  float64 `json:"perop_warm_seconds"`
	PerOpPointsPerSec float64 `json:"perop_points_per_sec"`
	// PerOpOverGraph is the per-op backend's warm-time ratio against the
	// graph backend, both through the batched pipeline: the median over
	// interleaved pairs of runs. Pricing over pre-resolved op classes and
	// deduplicated cost programs is what keeps this near 1.
	PerOpOverGraph float64 `json:"perop_over_graph_x"`

	// Heap-traffic trajectory: warm bytes/point against the PR3 scalar
	// pipeline's committed 174483.84 on this grid.
	PR3BytesPerPoint float64 `json:"pr3_bytes_per_point"`
	BytesReduction   float64 `json:"bytes_reduction_x"`
}

// timedRun runs a runner warm once, returning its wall time with its
// allocs/point and bytes/point.
func timedRun(ctx context.Context, r *Runner) (secs, allocsPerPoint, bytesPerPoint float64, err error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	if err := r.Run(ctx, func(Point) error { return nil }); err != nil {
		return 0, 0, 0, err
	}
	secs = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	allocsPerPoint = float64(ms1.Mallocs-ms0.Mallocs) / float64(r.Points())
	bytesPerPoint = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(r.Points())
	return secs, allocsPerPoint, bytesPerPoint, nil
}

// timedGridStats runs a runner warm reps times, returning the best wall
// time with its allocs/point and bytes/point. Best-of damps scheduler and
// GC noise.
func timedGridStats(ctx context.Context, r *Runner, reps int) (best, allocsPerPoint, bytesPerPoint float64, err error) {
	best = -1
	for rerun := 0; rerun < reps; rerun++ {
		secs, allocs, bytes, err := timedRun(ctx, r)
		if err != nil {
			return 0, 0, 0, err
		}
		if best < 0 || secs < best {
			best, allocsPerPoint, bytesPerPoint = secs, allocs, bytes
		}
	}
	return best, allocsPerPoint, bytesPerPoint, nil
}

// batchBenchPairs is how many interleaved graph/per-op run pairs the batch
// harness times.
const batchBenchPairs = 9

// timedPairs times the graph and per-op runners in interleaved pairs, back
// to back. It returns each backend's best wall time (the graph one with
// its allocs/point and bytes/point) and the median over pairs of the
// per-op/graph time ratio: a slow spell on a shared host then slows both
// halves of a pair, where separate best-of runs let it land on one
// backend only.
func timedPairs(ctx context.Context, graphRunner, peropRunner *Runner) (
	graphBest, allocsPerPoint, bytesPerPoint, peropBest, ratio float64, err error) {

	ratios := make([]float64, 0, batchBenchPairs)
	for pair := 0; pair < batchBenchPairs; pair++ {
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

// RunBatchBench runs the reference grid under the graph and per-op
// backends over one shared compiled source.
func RunBatchBench(ctx context.Context) (*BatchBenchReport, error) {
	src := newBuildSource()

	graphSpec := ReferenceSpec()
	peropSpec := ReferenceSpec()
	peropSpec.CostModel = "perop"

	graphRunner, err := New(src, graphSpec)
	if err != nil {
		return nil, err
	}
	peropRunner, err := New(src, peropSpec)
	if err != nil {
		return nil, err
	}
	rep := &BatchBenchReport{
		Schema:           BatchBenchSchema,
		Grid:             "reference",
		GoVersion:        runtime.Version(),
		GOOS:             runtime.GOOS,
		GOARCH:           runtime.GOARCH,
		CPUs:             runtime.GOMAXPROCS(0),
		GridPoints:       graphRunner.Points(),
		PR3BytesPerPoint: pr3BytesPerPoint,
	}

	// Warm-up: build + compile every domain once and fill both runners'
	// session free lists, outside any timed region.
	for _, r := range []*Runner{graphRunner, peropRunner} {
		if err := r.Run(ctx, func(Point) error { return nil }); err != nil {
			return nil, err
		}
	}

	rep.BatchedWarmSeconds, rep.BatchedAllocsPerPoint, rep.BatchedBytesPerPoint,
		rep.PerOpWarmSeconds, rep.PerOpOverGraph, err = timedPairs(ctx, graphRunner, peropRunner)
	if err != nil {
		return nil, err
	}

	pts := float64(rep.GridPoints)
	rep.BatchedPointsPerSec = pts / rep.BatchedWarmSeconds
	rep.PerOpPointsPerSec = pts / rep.PerOpWarmSeconds
	rep.BytesReduction = pr3BytesPerPoint / rep.BatchedBytesPerPoint
	return rep, nil
}

// WriteBatchBenchReport serializes a report as indented JSON (the
// BENCH_*.json file format), newline-terminated.
func WriteBatchBenchReport(w io.Writer, rep *BatchBenchReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
