package plan

import (
	"context"
	"sync"
	"testing"
	"time"

	"catamount/internal/core"
	"catamount/internal/models"
)

// referenceSearch is the fixed search the floor and benchmark run: the
// frontier word LM over the full five-entry catalog, two subbatches,
// eleven worker counts, and all three strategies — 330 candidate plans
// composed from two characterizations and one size solve. The committed
// BENCH_pr4.json history was recorded on it.
func referenceSearch() Spec {
	var workers []int
	for w := 1; w <= 1024; w *= 2 {
		workers = append(workers, w)
	}
	return Spec{
		Domain: "wordlm",
		Accelerators: []string{
			"target-v100-class", "a100-class", "h100-class", "tpuv3-class", "cpu-class",
		},
		Subbatches:   []float64{32, 128},
		WorkerCounts: workers,
	}
}

// buildSource is a minimal memoizing SessionSource for tests: a fresh one
// reproduces the cold (build+compile) experience without dragging the
// full Engine in.
type buildSource struct {
	mu sync.Mutex
	m  map[models.Domain]*buildEntry
}

type buildEntry struct {
	once sync.Once
	a    *core.Analyzer
	err  error
}

func newBuildSource() *buildSource {
	return &buildSource{m: make(map[models.Domain]*buildEntry)}
}

// Analyzer builds and compiles a domain's model at most once.
func (s *buildSource) Analyzer(d models.Domain) (*core.Analyzer, error) {
	s.mu.Lock()
	ent, ok := s.m[d]
	if !ok {
		ent = &buildEntry{}
		s.m[d] = ent
	}
	s.mu.Unlock()
	ent.once.Do(func() {
		m, err := models.Build(d)
		if err != nil {
			ent.err = err
			return
		}
		ent.a, ent.err = core.NewAnalyzer(m)
	})
	return ent.a, ent.err
}

// TestPlanBenchFloors is the regression gate on the reference search. It
// runs cold once over a fresh source, then warm three times; the best
// warm run must stay above a pinned throughput floor. The floor is
// conservative — an order of magnitude under typical dev-machine results
// — so only a real regression (losing characterization sharing,
// per-candidate allocation blowup) trips it, not machine noise.
func TestPlanBenchFloors(t *testing.T) {
	if testing.Short() {
		t.Skip("reference search runs four times")
	}
	ctx := context.Background()
	p, err := New(newBuildSource(), referenceSearch())
	if err != nil {
		t.Fatal(err)
	}
	if n := p.Candidates(); n != 330 {
		t.Fatalf("reference search drifted: %d candidates, want 330", n)
	}
	start := time.Now()
	res, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start).Seconds()
	if len(res.Frontier) == 0 {
		t.Fatal("reference search produced an empty frontier")
	}
	warm := -1.0
	for rerun := 0; rerun < 3; rerun++ {
		start = time.Now()
		if _, err := p.Run(ctx); err != nil {
			t.Fatal(err)
		}
		if secs := time.Since(start).Seconds(); warm < 0 || secs < warm {
			warm = secs
		}
	}
	rate := float64(p.Candidates()) / warm
	t.Logf("%d candidates: cold %.2fs, warm %.3fs (%.0f plans/s)", p.Candidates(), cold, warm, rate)
	const warmFloor = 500.0 // plans/sec
	if rate < warmFloor {
		t.Errorf("warm throughput %.1f plans/s below pinned floor %.0f", rate, warmFloor)
	}
}

// BenchmarkPlanSearch measures one warm reference search end to end.
func BenchmarkPlanSearch(b *testing.B) {
	src := newBuildSource()
	p, err := New(src, referenceSearch())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Run(context.Background()); err != nil {
		b.Fatal(err) // warm the source before timing
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
