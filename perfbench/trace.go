package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"catamount/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function. Parent is -1 for a root.
type span struct {
	name       string
	parent     int32
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps the spans of one run in memory. It is used from one
// goroutine at a time.
type tracer struct {
	runID string
	epoch time.Time
	spans []span
}

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, epoch: time.Now()}
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int32) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.epoch)})
	return int32(len(t.spans) - 1)
}

// end closes a span.
func (t *tracer) end(id int32) { t.spans[id].end = time.Since(t.epoch) }

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, parent int32, fn func()) time.Duration {
	id := t.begin(name, parent)
	fn()
	t.end(id)
	return t.spans[id].end - t.spans[id].start
}

// graft copies the spans a finished program trace recorded (the
// program's own obs stage spans) under parent, so they become children of
// the benchmark's span around the call that produced them. It returns the
// number of spans the program trace dropped past its capacity.
func (t *tracer) graft(pt *obs.Trace, parent int32) int {
	base := pt.Summary().Start.Sub(t.epoch)
	first := int32(len(t.spans))
	for _, r := range pt.Spans() {
		p := parent
		if r.Parent > 0 {
			p = first + r.Parent - 1
		}
		start := base + time.Duration(r.StartNs)
		t.spans = append(t.spans, span{name: r.Stage, parent: p, start: start, end: start + time.Duration(r.DurNs)})
	}
	return pt.DroppedSpans()
}

// traced runs fn inside a span with a fresh program trace rooted in its
// context, then grafts the program's stage spans under that span.
func (t *tracer) traced(name string, parent int32, fn func(ctx context.Context)) (time.Duration, int) {
	pt := obs.NewTrace(fmt.Sprintf("%s-%d", t.runID, len(t.spans)), "perfbench")
	ctx := pt.Context(context.Background())
	id := t.begin(name, parent)
	fn(ctx)
	t.end(id)
	pt.Finish(false)
	return t.spans[id].end - t.spans[id].start, t.graft(pt, id)
}

// selfTimes returns each span's duration minus its children's, indexed
// like spans. A tracer is used from one goroutine, so children never
// overlap.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		d := s.end - s.start
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
	}
	return self
}

// layerRow is one line of the self-time table.
type layerRow struct {
	name  string
	count int
	self  time.Duration
	total time.Duration
}

// layerTable aggregates self and total time by span name, ordered by self
// time, over the spans whose root span has one of the given names.
func (t *tracer) layerTable(roots ...string) []layerRow {
	keep := map[string]bool{}
	for _, r := range roots {
		keep[r] = true
	}
	rootOf := make([]int32, len(t.spans))
	for i, s := range t.spans {
		rootOf[i] = int32(i)
		if s.parent >= 0 {
			rootOf[i] = rootOf[s.parent] // parents begin before their children
		}
	}
	self := t.selfTimes()
	byName := map[string]*layerRow{}
	for i, s := range t.spans {
		if !keep[t.spans[rootOf[i]].name] {
			continue
		}
		r := byName[s.name]
		if r == nil {
			r = &layerRow{name: s.name}
			byName[s.name] = r
		}
		r.count++
		r.self += self[i]
		r.total += s.end - s.start
	}
	rows := make([]layerRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	return rows
}

// rowOf returns the table row of the given span name, zero if absent.
func rowOf(rows []layerRow, name string) layerRow {
	for _, r := range rows {
		if r.name == name {
			return r
		}
	}
	return layerRow{name: name}
}

// selfOf sums the self time of every span with the given name.
func selfOf(rows []layerRow, name string) time.Duration { return rowOf(rows, name).self }

// printLayerTable writes the self-time table. wall is the traced run's
// wall time; roots names the glue spans that are not a program layer, so
// coverage counts only time spent inside layer calls.
func printLayerTable(e *env, rows []layerRow, wall time.Duration, roots ...string) float64 {
	isRoot := map[string]bool{}
	for _, r := range roots {
		isRoot[r] = true
	}
	e.printf("\nper-layer self time (traced run, wall %.1f ms, %d span names; names without a dot are the program's own obs stage spans)\n",
		ms(wall), len(rows))
	e.printf("  %-34s %8s %12s %12s %7s\n", "span", "calls", "self_ms", "total_ms", "share")
	var layers time.Duration
	for _, r := range rows {
		share := 100 * float64(r.self) / float64(wall)
		e.printf("  %-34s %8d %12.3f %12.3f %6.1f%%\n", r.name, r.count, ms(r.self), ms(r.total), share)
		if !isRoot[r.name] {
			layers += r.self
		}
	}
	coverage := 100 * float64(layers) / float64(wall)
	e.printf("  layer self times cover %.1f%% of the traced run's wall time (the rest is the benchmark's own loop: %s)\n",
		coverage, strings.Join(roots, ", "))
	return coverage
}

// writeChromeTrace saves the spans as a Chrome trace-event file, loadable
// in ui.perfetto.dev or chrome://tracing.
func (t *tracer) writeChromeTrace(path string, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		cat, _, _ := strings.Cut(s.name, ".")
		events[i] = event{
			Name: s.name, Cat: cat, Ph: "X",
			Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "parent": s.parent, "run_id": t.runID},
		}
	}
	b, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// saveTrace writes the run's trace file and prints where it went.
func saveTrace(e *env, t *tracer) error {
	path := filepath.Join(e.outDir, "traces", fmt.Sprintf("%s-seed%d.json", e.workload, e.seed))
	err := t.writeChromeTrace(path, map[string]any{
		"workload": e.workload, "seed": e.seed, "run_id": t.runID,
	})
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	e.printf("trace: %d spans written to %s\n", len(t.spans), path)
	return nil
}

// stageSnap is the program's own stage histograms (obs.Default), read as
// count and sum per stage.
type stageSnap map[string]struct {
	count int64
	sum   float64
}

func readStages() stageSnap {
	out := stageSnap{}
	obs.Default.EachHistogram(func(name string, labels []obs.Label, h *obs.Histogram) {
		if name != obs.StageDurationMetric {
			return
		}
		for _, l := range labels {
			if l.Name == "stage" {
				s := h.Snapshot()
				out[l.Value] = struct {
					count int64
					sum   float64
				}{s.Count, s.Sum}
			}
		}
	})
	return out
}

// printStages prints the stage histograms' growth since before, next to
// the benchmark's own measurement of the same phase. It is a cross-check,
// not a gate: the two disagree when a stage span and the benchmark's
// timing cover different work.
func printStages(e *env, title string, before stageSnap) {
	after := readStages()
	e.printf("\nprogram stage histograms (obs.Default) over %s\n", title)
	e.printf("  %-22s %10s %12s %12s\n", "stage", "count", "sum_ms", "mean_us")
	any := false
	for _, name := range sortedKeys(after) {
		a := after[name]
		b := before[name]
		n := a.count - b.count
		if n == 0 {
			continue
		}
		any = true
		sum := (a.sum - b.sum) * 1e3
		e.printf("  %-22s %10d %12.3f %12.3f\n", name, n, sum, sum*1e3/float64(n))
	}
	if !any {
		e.printf("  (no stage observed)\n")
	}
}
