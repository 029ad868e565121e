package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	cat "catamount"
	"catamount/internal/costmodel"
	"catamount/internal/models"
	"catamount/internal/obs"
)

// tinyEnv is a run shrunk to smoke-test size: one boot, a short timed
// phase.
func tinyEnv(t *testing.T, workload string, trace bool, out *bytes.Buffer) *env {
	e := newEnv(options{workload: workload, seed: 3, seconds: 0.3, trace: trace, outDir: t.TempDir()}, out)
	e.setupMinReps, e.setupMinTotal = 1, 0
	return e
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, names, units []string, want []metricSpec) {
		if len(names) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(names), len(want))
		}
		for i := range names {
			if names[i] != want[i].name || units[i] != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, names[i], units[i], want[i].name, want[i].unit)
			}
		}
	}
	var n, u []string
	for _, m := range f.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("end_to_end", n, u, endToEnd)
	n, u = nil, nil
	for _, m := range f.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("per_layer", n, u, perLayer)
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that every metric is emitted with its unit and no check failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots every domain")
	}
	f := readBenchmarkFile(t)
	units := map[string]string{}
	for _, m := range f.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range f.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			e := tinyEnv(t, w.name, trace, &out)
			res, err := run(e)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.name)
					continue
				}
				if got.Unit != units[m.name] {
					t.Errorf("%s: metric %s unit %q, BENCHMARK.json %q", w.name, m.name, got.Unit, units[m.name])
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s: metric %s = %v", w.name, m.name, got.Value)
				}
			}
			if trace {
				path := filepath.Join(e.outDir, "traces", w.name+"-seed3.json")
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%s: trace file: %v", w.name, err)
				}
				var tf struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				if err := json.Unmarshal(b, &tf); err != nil || len(tf.TraceEvents) == 0 {
					t.Fatalf("%s: trace file unreadable or empty: %v", w.name, err)
				}
				if !strings.Contains(out.String(), "per-layer self time") {
					t.Errorf("%s: no self-time table in the report", w.name)
				}
			}
		}
	}
}

// imageGrid is a small warmed image sweep with an oracle sample.
func imageGrid(t *testing.T) (*env, *cat.Engine, *grid) {
	t.Helper()
	eng, err := bootEngine([]models.Domain{models.ImageCl})
	if err != nil {
		t.Fatal(err)
	}
	sw := imageSweep
	sw.params, sw.checkPoints = 2, 10
	g, err := sw.makeGrid(eng, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.warm(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	e := newEnv(options{workload: "sweep_image_perop", seed: 5, seconds: 0.05}, &out)
	if _, _, _, _, err := timedPhase(e, g, 0.05); err != nil {
		t.Fatal(err)
	}
	if e.failed != 0 || len(g.sample) == 0 {
		t.Fatalf("clean run: failed=%d sample=%d", e.failed, len(g.sample))
	}
	checkSamples(e, eng, costmodel.PerOpRoofline{}, g)
	if e.failed != 0 {
		t.Fatalf("clean sample failed the oracle: %v", e.failures)
	}
	return e, eng, g
}

func TestCorruptedPointRaisesFailRatio(t *testing.T) {
	e, eng, g := imageGrid(t)
	p := g.sample[0]
	req := *p.Requirements
	req.FootprintBytes = math.Nextafter(req.FootprintBytes, math.Inf(1))
	p.Requirements = &req
	g.sample = append(g.sample, p)
	q := g.sample[0]
	q.StepSeconds = math.Nextafter(q.StepSeconds, 0)
	g.sample = append(g.sample, q)
	before := e.failed
	checkSamples(e, eng, costmodel.PerOpRoofline{}, g)
	if e.failed-before != 2 {
		t.Fatalf("two corrupted points raised failed by %d: %v", e.failed-before, e.failures)
	}
}

func TestDigestMismatchFailsEveryPointOfTheRun(t *testing.T) {
	e, _, g := imageGrid(t)
	g.digest ^= 1
	e.attempted, e.failed = 0, 0
	if _, _, _, _, err := timedPhase(e, g, 0.01); err != nil {
		t.Fatal(err)
	}
	if e.failed != e.attempted || e.attempted == 0 {
		t.Fatalf("attempted %d, failed %d; want every point failed", e.attempted, e.failed)
	}
}

func TestNon2xxReplyRaisesFailRatio(t *testing.T) {
	gen := newReqGen(serveWorkload{hotKeys: 2, blockHits: 1, blockMisses: 1, blockPlans: 1, checkEvery: 1}, 9)
	// Hot keys on image and wordlm only keep the boot small.
	gen.hot[1] = gen.analyze(models.ImageCl)
	gen.hot[1].class, gen.hot[1].hot = classHit, 1
	st, err := serveWorkload{}.bootDomains(gen, []models.Domain{models.ImageCl, models.WordLM})
	if err != nil {
		t.Fatal(err)
	}
	defer st.srv.Close()

	var out bytes.Buffer
	e := newEnv(options{workload: "serve_mixed"}, &out)
	bad := serveReq{seq: 1, class: classMiss, target: "/v1/analyze?domain=nope&params=1e8"}
	req, err := bad.httpRequest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rec := newRespRecorder()
	st.srv.ServeHTTP(rec, req)
	if rec.status != http.StatusBadRequest {
		t.Fatalf("unknown domain: status %d", rec.status)
	}
	// A hit whose body differs from its first response fails too, and the
	// untouched hit passes.
	hit := gen.hot[0]
	log := &clientLog{done: []served{
		{req: bad, err: st.judge(bad, rec.status, rec.body.Bytes())},
		{req: hit, err: st.judge(hit, http.StatusOK, append(bytes.Clone(st.hotBodies[0]), ' '))},
		{req: hit, err: st.judge(hit, http.StatusOK, st.hotBodies[0])},
	}}
	if log.done[2].err != nil {
		t.Fatalf("clean hit judged failed: %v", log.done[2].err)
	}
	checkLogs(e, st.eng, []*clientLog{log}, 1)
	if e.attempted != 3 || e.failed != 2 {
		t.Fatalf("attempted %d, failed %d; want 3 requests, 2 failed (non-2xx reply, corrupted hit): %v",
			e.attempted, e.failed, e.failures)
	}
}

func TestQuantile(t *testing.T) {
	s := summarize([]float64{4, 1, 3, 2, 5})
	if s.p50 != 3 || s.p25 != 2 || s.p75 != 4 || s.n != 5 {
		t.Fatalf("summary %+v", s)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer("t")
	tr.spans = []span{
		{name: "root", parent: -1, start: 0, end: 100 * time.Millisecond},
		{name: "a", parent: 0, start: 10 * time.Millisecond, end: 30 * time.Millisecond},
		{name: "b", parent: 0, start: 30 * time.Millisecond, end: 45 * time.Millisecond},
		{name: "c", parent: 1, start: 12 * time.Millisecond, end: 14 * time.Millisecond},
	}
	self := tr.selfTimes()
	want := []time.Duration{65 * time.Millisecond, 18 * time.Millisecond, 15 * time.Millisecond, 2 * time.Millisecond}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d self %v, want %v", i, self[i], want[i])
		}
	}
}

func TestGraftParentsProgramSpansUnderTheCall(t *testing.T) {
	tr := newTracer("t")
	_, dropped := tr.traced("outer.Call", -1, func(ctx context.Context) {
		sp := obs.StartSpan(ctx, "stage_a", nil)
		child := obs.StartSpan(sp.Attach(ctx), "stage_b", nil)
		time.Sleep(time.Millisecond)
		child.End()
		sp.End()
	})
	if dropped != 0 || len(tr.spans) != 3 {
		t.Fatalf("%d spans, %d dropped; want 3, 0", len(tr.spans), dropped)
	}
	want := []struct {
		name   string
		parent int32
	}{{"outer.Call", -1}, {"stage_a", 0}, {"stage_b", 1}}
	for i, w := range want {
		s := tr.spans[i]
		if s.name != w.name || s.parent != w.parent {
			t.Errorf("span %d: %s under %d, want %s under %d", i, s.name, s.parent, w.name, w.parent)
		}
		if i > 0 && (s.start < tr.spans[s.parent].start || s.end > tr.spans[s.parent].end) {
			t.Errorf("span %d [%v, %v] lies outside its parent [%v, %v]", i, s.start, s.end,
				tr.spans[s.parent].start, tr.spans[s.parent].end)
		}
	}
	if self := tr.selfTimes(); self[2] < time.Millisecond || self[1] < 0 {
		t.Errorf("self times %v", self)
	}
}
