package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted samples by linear
// interpolation between closest ranks. NaN when empty.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// mean is the arithmetic mean; NaN when empty.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// summary is a sample set reduced to median, quartiles and a tail.
type summary struct {
	n                  int
	p25, p50, p75, p90 float64
	p99                float64
}

func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return summary{
		n:   len(s),
		p25: quantile(s, 0.25),
		p50: quantile(s, 0.50),
		p75: quantile(s, 0.75),
		p90: quantile(s, 0.90),
		p99: quantile(s, 0.99),
	}
}

// tail returns the highest of p90/p99 that has at least ten samples
// beyond it, with its label; p90 when even that has fewer.
func (s summary) tail() (string, float64) {
	if float64(s.n)*0.01 >= 10 {
		return "p99", s.p99
	}
	return "p90", s.p90
}

// line prints one metric row: name, unit, sample count, median, quartiles
// and the tail percentile (flagged when fewer than ten samples lie beyond).
func (s summary) line(name, unit string) string {
	label, v := s.tail()
	beyond := int(float64(s.n) * 0.1)
	if label == "p99" {
		beyond = int(float64(s.n) * 0.01)
	}
	warn := ""
	if beyond < 10 {
		warn = fmt.Sprintf("  (only %d samples beyond %s)", beyond, label)
	}
	return fmt.Sprintf("  %-22s %-6s n=%-6d median=%-12.6g q1=%-12.6g q3=%-12.6g %s=%.6g%s\n",
		name, unit, s.n, s.p50, s.p25, s.p75, label, v, warn)
}

// printComputeLayers prints the per-point compute-layer metrics a traced
// run recorded.
func printComputeLayers(e *env) {
	for _, name := range []string{"core.size_solve_us_per_pair", "symbolic.eval_us_per_pt",
		"graph.footprint_us_per_pt", "graph.footprint_share", "costmodel.steptime_us_per_pt"} {
		m := e.metrics[name]
		e.printf("%s", scalarLine(name, m.Unit, m.Value, ""))
	}
}

// scalarLine prints a single-valued metric.
func scalarLine(name, unit string, v float64, note string) string {
	return fmt.Sprintf("  %-22s %-6s %.6g  %s\n", name, unit, v, note)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// memDelta is the allocation and GC activity of one timed phase.
type memDelta struct {
	bytes, allocs, gcs uint64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		bytes:  after.TotalAlloc - before.TotalAlloc,
		allocs: after.Mallocs - before.Mallocs,
		gcs:    uint64(after.NumGC - before.NumGC),
	}
}

// heapAfterGC reports, after two forced collections, the heap spans in
// use (MemStats.HeapInuse) and the live heap bytes (MemStats.HeapAlloc),
// in MiB. The second collection also drops what sync.Pools kept from
// before the first, so both count memory the program holds, not its
// recycled scratch.
func heapAfterGC() (inuse, live float64) {
	runtime.GC()
	runtime.GC()
	m := readMem()
	return float64(m.HeapInuse) / (1 << 20), float64(m.HeapAlloc) / (1 << 20)
}

// reportHeap prints both heap figures and records the live heap: after a
// full collection it depends only on what the program keeps reachable,
// while HeapInuse also counts partly empty spans and so varies with
// allocation history.
func reportHeap(e *env) {
	inuse, live := heapAfterGC()
	e.printf("%s", scalarLine("heap_live_mb", "MB", live, "MemStats.HeapAlloc after the timed phase and forced GCs"))
	e.printf("%s", scalarLine("heap_inuse_mb", "MB", inuse, "MemStats.HeapInuse, same moment (counts fragmentation)"))
	e.set("heap_live_mb", live, "MB")
}

// recordMem reports a phase's allocation rates per operation, both as
// printed rows and as the per-layer runtime metrics.
func recordMem(e *env, d memDelta, ops int64, opName string) {
	if ops < 1 {
		ops = 1
	}
	perOp := float64(d.bytes) / float64(ops)
	allocs := float64(d.allocs) / float64(ops)
	gcs := float64(d.gcs) * 1000 / float64(ops)
	e.printf("%s", scalarLine("alloc_bytes_per_op", "B", perOp, "per "+opName))
	e.printf("%s", scalarLine("allocs_per_op", "count", allocs, "per "+opName))
	e.printf("%s", scalarLine("gc_cycles_per_kop", "count", gcs, fmt.Sprintf("%d cycles over %d %ss", d.gcs, ops, opName)))
	e.set("runtime.alloc_bytes_per_op", perOp, "B")
	e.set("runtime.allocs_per_op", allocs, "count")
	e.set("runtime.gc_cycles_per_kop", gcs, "count")
}

// timedSetups boots the workload repeatedly — at least setupMinReps times
// and until setupMinTotal has passed, however many boots that takes — and
// returns each boot's seconds. A short boot is thus repeated for the whole
// time, so its median rests on many samples. The last boot's state is what
// the workload keeps.
func timedSetups(e *env, boot func() error) ([]float64, error) {
	var secs []float64
	var total time.Duration
	for len(secs) < e.setupMinReps || total < e.setupMinTotal {
		runtime.GC()
		t0 := time.Now()
		if err := boot(); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		total += d
		secs = append(secs, d.Seconds())
	}
	return secs, nil
}
