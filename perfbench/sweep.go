package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"time"

	cat "catamount"
	"catamount/internal/core"
	"catamount/internal/costmodel"
	"catamount/internal/graph"
	"catamount/internal/hw"
	"catamount/internal/models"
	"catamount/internal/sweep"
)

// sweepWorkload is a warm sweep.Runner.Run over one seeded grid, run
// again and again on the same Runner. Each Run is the benchmark's
// operation for latency, and its points are encoded with
// LineEncoder.NDJSON into a digesting writer.
type sweepWorkload struct {
	domains     []models.Domain
	costModel   string
	params      int // seeded parameter targets in the grid
	checkPoints int // seeded sample checked against the scalar oracle
}

// paramMin/paramMax bound the log-uniform parameter targets.
const paramMin, paramMax = 1e7, 2e9

// sweepSubbatches are the subbatch sizes of every grid.
var sweepSubbatches = []float64{16, 32, 64, 128}

var (
	rnnSweep = sweepWorkload{
		domains: rnnDomains, costModel: costmodel.GraphName,
		params: 1, checkPoints: 48,
	}
	imageSweep = sweepWorkload{
		domains: []models.Domain{models.ImageCl}, costModel: costmodel.PerOpName,
		params: 64, checkPoints: 256,
	}
)

func runSweepRNN(e *env) error   { return rnnSweep.run(e) }
func runSweepImage(e *env) error { return imageSweep.run(e) }

// grid is the seeded sweep, its Runner, and what its first run produced.
type grid struct {
	spec   sweep.Spec
	runner *sweep.Runner
	points int
	digest uint32 // CRC-32C of the NDJSON stream of the warm-up run
	want   []bool // Seq -> sampled for the oracle check
	sample []sweep.Point
}

// digestWriter hashes what an encoder writes instead of keeping it.
type digestWriter struct{ crc uint32 }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (w *digestWriter) Write(p []byte) (int, error) {
	w.crc = crc32.Update(w.crc, castagnoli, p)
	return len(p), nil
}

// logUniform draws from [lo, hi] uniformly in log space.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

// makeGrid derives the workload's grid and oracle sample from the seed;
// the program sees only the spec.
func (sw sweepWorkload) makeGrid(src sweep.SessionSource, seed int64, workers int) (*grid, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed5eed))
	names := make([]string, len(sw.domains))
	for i, d := range sw.domains {
		names[i] = string(d)
	}
	params := make([]float64, sw.params)
	for j := range params {
		params[j] = logUniform(rng, paramMin, paramMax)
	}
	spec := sweep.Spec{
		Domains:      names,
		Params:       params,
		Subbatches:   sweepSubbatches,
		Accelerators: hw.Names(),
		CostModel:    sw.costModel,
		Workers:      workers,
	}
	g, err := newGrid(src, spec)
	if err != nil {
		return nil, err
	}
	// The same number of points from every domain: the grid is
	// domain-major, so each domain owns one contiguous Seq range.
	per := g.points / len(sw.domains)
	for di := range sw.domains {
		for _, k := range rng.Perm(per)[:min(sw.checkPoints/len(sw.domains), per)] {
			g.want[di*per+k] = true
		}
	}
	return g, nil
}

func newGrid(src sweep.SessionSource, spec sweep.Spec) (*grid, error) {
	r, err := sweep.New(src, spec)
	if err != nil {
		return nil, fmt.Errorf("sweep spec: %w", err)
	}
	return &grid{spec: spec, runner: r, points: r.Points(), want: make([]bool, r.Points())}, nil
}

// runGrid runs the grid through its Runner, encoding every point, and
// returns the stream digest, the number of errored points, and the run's
// duration. When capture is set, sampled points are kept for the oracle.
func runGrid(g *grid, capture bool) (uint32, int, time.Duration, error) {
	var w digestWriter
	enc := sweep.NewLineEncoder(&w)
	errored := 0
	t0 := time.Now()
	err := g.runner.Run(context.Background(), func(p sweep.Point) error {
		if p.Error != "" {
			errored++
		}
		if capture && g.want[p.Seq] {
			g.sample = append(g.sample, p)
		}
		return enc.NDJSON(p)
	})
	return w.crc, errored, time.Since(t0), err
}

// warm runs the grid once, untimed: sessions are allocated and the
// reference digest is taken.
func (g *grid) warm() error {
	crc, _, _, err := runGrid(g, false)
	g.digest = crc
	return err
}

// timedPhase runs the grid again and again for the given time. Every
// point is an attempted operation and fails at most once: every point of a
// run whose digest differs from the warm-up's fails, and otherwise each
// errored point does. It returns each run's latency, the points run, the
// phase's wall time and the number of runs whose digest differed. When
// the first run, which supplies the oracle sample, failed whole, the sample
// is dropped: its points are already counted.
func timedPhase(e *env, g *grid, seconds float64) (lat []float64, points int64, wall time.Duration, mismatched int, err error) {
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for i := 0; ; i++ {
		crc, errored, d, err := runGrid(g, i == 0)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		lat = append(lat, ms(d))
		points += int64(g.points)
		e.attempted += int64(g.points)
		switch {
		case crc != g.digest:
			mismatched++
			e.fail(int64(g.points), "run %d: NDJSON digest %08x differs from the first run's %08x", i, crc, g.digest)
			if i == 0 {
				g.sample = nil
			}
		case errored > 0:
			e.fail(int64(errored), "run %d: %d points carried an error", i, errored)
		}
		if time.Since(start) >= budget {
			break
		}
	}
	return lat, points, time.Since(start), mismatched, nil
}

// oracle recomputes one point through the scalar path — Analyzer.
// Characterize plus the backend's StepTime on Analyzer.StepCosts — and
// reports any field that is not bit-for-bit identical.
func oracle(eng *cat.Engine, cm costmodel.Model, p sweep.Point) error {
	if p.Error != "" {
		return fmt.Errorf("point %d carried error %q", p.Seq, p.Error)
	}
	if p.Requirements == nil {
		return fmt.Errorf("point %d has no requirements", p.Seq)
	}
	a, err := eng.Analyzer(p.Domain)
	if err != nil {
		return err
	}
	acc, err := hw.Lookup(p.Accelerator)
	if err != nil {
		return err
	}
	size, err := a.SizeForParams(p.ParamTarget)
	if err != nil {
		return err
	}
	want, err := a.Characterize(context.Background(), size, p.Subbatch, graph.PolicyMemGreedy)
	if err != nil {
		return err
	}
	if field, ok := sameBits(*p.Requirements, want); !ok {
		return fmt.Errorf("point %d (%s %g/%g/%s): %s differs from Characterize", p.Seq,
			p.Domain, p.ParamTarget, p.Subbatch, p.Accelerator, field)
	}
	costs := a.StepCosts(size, p.Subbatch, costmodel.NeedsOpCosts(cm))
	step := cm.StepTime(acc, costs)
	switch {
	case math.Float64bits(step) != math.Float64bits(p.StepSeconds):
		return fmt.Errorf("point %d: step_seconds %v, oracle %v", p.Seq, p.StepSeconds, step)
	case math.Float64bits(acc.Utilization(want.FLOPsPerStep, step)) != math.Float64bits(p.Utilization):
		return fmt.Errorf("point %d: utilization differs from the oracle", p.Seq)
	case (cm.Bound(acc, costs) == costmodel.BoundCompute) != p.ComputeBound:
		return fmt.Errorf("point %d: compute_bound differs from the oracle", p.Seq)
	case acc.Fits(want.FootprintBytes) != p.FitsMemory:
		return fmt.Errorf("point %d: fits_memory differs from the oracle", p.Seq)
	}
	return nil
}

// sameBits compares two structs field by field, floats by their bits.
func sameBits(a, b core.Requirements) (string, bool) {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		name := va.Type().Field(i).Name
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return name, false
			}
			continue
		}
		if fa.Interface() != fb.Interface() {
			return name, false
		}
	}
	return "", true
}

// checkSamples runs the oracle over every captured point. A point that
// carried an error was already counted as failed.
func checkSamples(e *env, eng *cat.Engine, cm costmodel.Model, g *grid) {
	for _, p := range g.sample {
		if p.Error != "" {
			continue
		}
		if err := oracle(eng, cm, p); err != nil {
			e.fail(1, "oracle: %v", err)
		}
	}
}

func (sw sweepWorkload) run(e *env) error {
	cm, err := costmodel.Parse(sw.costModel)
	if err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	var tr *tracer
	if e.trace {
		tr = newTracer(fmt.Sprintf("%s-%d-%d", e.workload, e.seed, time.Now().UnixNano()))
		if err := probeSetupLayers(e, tr); err != nil {
			return err
		}
	}

	e.printf("\nend-to-end, untraced\n")
	var eng *cat.Engine
	if e.trace {
		eng, err = bootEngine(sw.domains)
	} else {
		var secs []float64
		secs, err = timedSetups(e, func() error {
			var err error
			eng, err = bootEngine(sw.domains)
			return err
		})
		if err == nil {
			reportSetup(e, secs, fmt.Sprintf("NewEngine + build/compile of %d domains", len(sw.domains)))
		}
	}
	if err != nil {
		return err
	}

	g, err := sw.makeGrid(eng, e.seed, workers)
	if err != nil {
		return err
	}
	if err := g.warm(); err != nil {
		return err
	}
	stagesBefore := readStages()
	memBefore := readMem()
	lat, points, wall, mismatched, err := timedPhase(e, g, e.seconds)
	if err != nil {
		return err
	}

	mem := memSince(memBefore)
	pps := float64(points) / wall.Seconds()

	s := summarize(lat)
	e.printf("%s", scalarLine("ops_per_s", "1/s", pps,
		fmt.Sprintf("points_per_s: %d points in %.2f s, %d workers", points, wall.Seconds(), workers)))
	e.printf("%s", s.line("op_ms", "ms"))
	e.printf("    (one op = one Runner.Run over the seeded %d-point grid; op_p50_ms %.6g, op_p90_ms %.6g)\n",
		g.points, s.p50, s.p90)
	reportHeap(e)
	recordMem(e, mem, points, "point")
	e.printf("  NDJSON stream digest %08x (CRC-32C); %d of %d runs had another digest\n", g.digest, mismatched, len(lat))
	e.set("ops_per_s", pps, "1/s")
	e.set("op_p50_ms", s.p50, "ms")
	e.set("op_p90_ms", s.p90, "ms")
	if !e.trace {
		printStages(e, "the timed phase", stagesBefore)
	}

	checkSamples(e, eng, cm, g)
	e.printf("  oracle: %d sampled points checked bit for bit against Characterize + StepTime\n", len(g.sample))

	if e.trace {
		if err := sw.traced(e, tr, eng, g, pps); err != nil {
			return err
		}
		return saveTrace(e, tr)
	}
	return nil
}

// traced runs the grid through Runner.Run at one worker with a program
// trace in its context, so the program's own stage spans (sweep_chunk,
// characterize_batch, footprint, steptime_*) time the layers inside the
// Runner. Around that it times, one span per call, what the program does
// not instrument: Session.SizeForParams over the grid's pairs and
// LineEncoder.NDJSON over the points the Run yielded. Then it runs the same
// number of untraced Runner.Runs at one worker to show the tracing cost.
func (sw sweepWorkload) traced(e *env, tr *tracer, eng *cat.Engine, g *grid, untracedPPS float64) error {
	spec := g.spec
	spec.Workers = 1
	serial, err := newGrid(eng, spec)
	if err != nil {
		return err
	}
	if err := serial.warm(); err != nil {
		return err
	}
	sessions := make([]*core.Session, len(spec.Domains))
	for i, name := range spec.Domains {
		a, err := eng.Analyzer(models.Domain(name))
		if err != nil {
			return err
		}
		sessions[i] = a.NewSession()
	}
	budget := time.Duration(e.seconds * 0.3 * float64(time.Second))

	var wall time.Duration
	var pts []sweep.Point
	runs, dropped := 0, 0
	for runs == 0 || wall < budget {
		root := tr.begin("sweep.grid", -1)
		for _, ses := range sessions {
			for _, p := range spec.Params {
				var err error
				tr.do("core.size_solve", root, func() { _, err = ses.SizeForParams(p) })
				if err != nil {
					return err
				}
			}
		}
		pts = pts[:0]
		var runErr error
		_, d := tr.traced("sweep.Runner.Run", root, func(ctx context.Context) {
			runErr = serial.runner.Run(ctx, func(p sweep.Point) error {
				pts = append(pts, p)
				return nil
			})
		})
		dropped += d
		if runErr != nil {
			return runErr
		}
		var w digestWriter
		var encErr error
		tr.do("sweep.encode", root, func() {
			enc := sweep.NewLineEncoder(&w)
			for _, p := range pts {
				if err := enc.NDJSON(p); err != nil {
					encErr = err
					return
				}
			}
		})
		if encErr != nil {
			return encErr
		}
		tr.end(root)
		wall += tr.spans[root].end - tr.spans[root].start
		runs++
		e.attempted += int64(g.points)
		if w.crc != g.digest {
			e.fail(int64(g.points), "traced run %d: digest %08x differs from the timed phase's %08x", runs, w.crc, g.digest)
		}
	}
	points := int64(runs * g.points)
	pairs := int64(runs * len(spec.Domains) * len(spec.Params))

	stagesBefore := readStages()
	var runWall time.Duration
	for i := 0; i < runs; i++ {
		crc, _, d, err := runGrid(serial, false)
		if err != nil {
			return err
		}
		runWall += d
		e.attempted += int64(g.points)
		if crc != g.digest {
			e.fail(int64(g.points), "one-worker Runner.Run digest %08x differs from %08x", crc, g.digest)
		}
	}

	e.printf("\ntraced run: %d runs of the grid, Runner.Run at one worker\n", runs)
	rows := tr.layerTable("sweep.grid")
	coverage := printLayerTable(e, rows, wall, "sweep.grid")
	if dropped > 0 {
		e.printf("  note: the program traces dropped %d spans past their capacity\n", dropped)
	}
	fp := selfOf(rows, "footprint")
	fpShare := 100 * float64(fp) / float64(wall)
	e.printf("  footprint share: %.1f%% of the traced run's wall time\n", fpShare)
	printStages(e, fmt.Sprintf("untraced Runner.Run at 1 worker, %d runs of the grid (%.1f ms; traced %.1f ms)",
		runs, ms(runWall), ms(wall)), stagesBefore)

	// The scalar per-point path over the oracle sample.
	cm := serial.runner.CostModel()
	var aoLat []float64
	for _, p := range g.sample {
		acc, err := hw.Lookup(p.Accelerator)
		if err != nil {
			return err
		}
		var aerr error
		d := tr.do("catamount.AnalyzeOn", -1, func() {
			_, _, aerr = eng.AnalyzeOn(context.Background(), p.Domain, p.ParamTarget, p.Subbatch, acc, cm)
		})
		e.attempted++
		if aerr != nil {
			e.fail(1, "AnalyzeOn: %v", aerr)
		}
		aoLat = append(aoLat, ms(d))
	}
	ao := summarize(aoLat)

	var step time.Duration
	for _, r := range rows {
		if strings.HasPrefix(r.name, "steptime_") {
			step += r.self
		}
	}
	per := func(d time.Duration) float64 { return us(d) / float64(points) }
	e.set("core.size_solve_us_per_pair", us(selfOf(rows, "core.size_solve"))/float64(pairs), "us")
	e.set("symbolic.eval_us_per_pt", per(selfOf(rows, "characterize_batch")), "us")
	e.set("graph.footprint_us_per_pt", per(fp), "us")
	e.set("graph.footprint_share", fpShare, "%")
	e.set("costmodel.steptime_us_per_pt", per(step), "us")
	e.set("catamount.analyze_on_ms_mean", mean(aoLat), "ms")

	e.printf("\nper-layer metrics (%d traced runs, %d points, %d size solves)\n", runs, points, pairs)
	printComputeLayers(e)
	e.printf("    (eval is characterize_batch's self time: the compiled totals, tensor and node-cost programs)\n")
	e.printf("%s", scalarLine("sweep.encode_us_per_pt", "us", per(selfOf(rows, "sweep.encode")), "LineEncoder.NDJSON"))
	e.printf("%s", scalarLine("sweep.runner_self_us_per_pt", "us",
		per(selfOf(rows, "sweep.Runner.Run")+selfOf(rows, "sweep_chunk")),
		"Runner.Run and sweep_chunk self time: size solves, scheduling, emission"))
	e.printf("%s", ao.line("catamount.analyze_on_ms", "ms"))
	e.printf("    (scalar Engine.AnalyzeOn over the %d oracle-sample points, the same number per domain; mean %.6g)\n", ao.n, mean(aoLat))
	runTotal := rowOf(rows, "sweep.Runner.Run").total + selfOf(rows, "sweep.encode")
	tracedPPS := float64(points) / runTotal.Seconds()
	runPPS := float64(points) / runWall.Seconds()
	e.printf("  layer coverage %.1f%%. Tracing cost: traced Runner.Run + encode %.0f points/s vs untraced Runner.Run at 1 worker %.0f points/s (traced is %.1f%% slower); untraced %d-worker run %.0f points/s\n",
		coverage, tracedPPS, runPPS, 100*(runPPS-tracedPPS)/runPPS, runtime.GOMAXPROCS(0), untracedPPS)
	return nil
}
