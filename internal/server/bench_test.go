package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
)

// benchServer shares one warmed engine across benchmark iterations so the
// numbers isolate serving cost from one-time model compilation.
func benchServer(b *testing.B, cacheEntries int) *Server {
	b.Helper()
	s := New(Config{Engine: sharedEngine, CacheEntries: cacheEntries})
	// Warm the domain model outside the timed region.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		"/v1/analyze?domain=wordlm&params=1.03e9&batch=128", nil))
	if rec.Code != http.StatusOK {
		b.Fatalf("warmup = %d %s", rec.Code, rec.Body)
	}
	return s
}

// BenchmarkServerAnalyzeCached serves one hot query from the LRU: the
// steady state of frontier-dashboard traffic.
func BenchmarkServerAnalyzeCached(b *testing.B) {
	s := benchServer(b, 1024)
	req := httptest.NewRequest(http.MethodGet,
		"/v1/analyze?domain=wordlm&params=1.03e9&batch=128", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("code %d", rec.Code)
		}
	}
	b.StopTimer()
	if m := s.Metrics(); m.CacheHits < int64(b.N) {
		b.Fatalf("expected all-hit serving, metrics %+v", m)
	}
}

// BenchmarkServerAnalyzeUncached forces a miss per iteration (a 1-entry
// cache and alternating keys), so every request pays the full upstream
// computation: size solve, characterization, footprint traversal, marshal.
func BenchmarkServerAnalyzeUncached(b *testing.B) {
	s := benchServer(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf(
			"/v1/analyze?domain=wordlm&params=1.03e9&batch=%d", 128+i%2), nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("code %d", rec.Code)
		}
	}
}

// BenchmarkServerFrontierCached measures the heaviest cacheable query
// (the full Table 3 regeneration) served hot.
func BenchmarkServerFrontierCached(b *testing.B) {
	s := New(Config{Engine: sharedEngine})
	req := httptest.NewRequest(http.MethodGet, "/v1/frontier?accel=a100", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("warmup = %d %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("code %d", rec.Code)
		}
	}
}

// BenchmarkServerAnalyzeParallel drives the cached hot path from
// b.RunParallel workers over a spread of keys — the measurement that
// shows (run with -cpu 1,4) how cached serving scales with cores through
// the response cache's one lock.
func BenchmarkServerAnalyzeParallel(b *testing.B) {
	s := New(Config{Engine: sharedEngine, CacheEntries: 1024, MaxInFlight: 256})
	paths := benchPaths()
	reqs, err := benchRequests(s, paths)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rec := &verdictRecorder{hdr: make(http.Header)}
		i := 0
		for pb.Next() {
			s.ServeHTTP(rec, reqs[i%len(reqs)])
			if rec.status >= 400 {
				b.Errorf("status %d", rec.status)
				return
			}
			rec.status = 0
			i++
		}
	})
	b.StopTimer()
	if m := s.Metrics(); m.CacheMisses > int64(len(paths)) {
		b.Fatalf("hot path recomputed: %d misses for %d keys", m.CacheMisses, len(paths))
	}
}

// TestServeBenchFloors is the CI regression gate on the BENCH_pr10.json
// trajectory: single-threaded hot throughput must stay above a pinned
// floor, and on machines with enough cores the concurrent levels must
// actually scale (8 goroutines ≥3x single-threaded with GOMAXPROCS ≥ 8,
// ≥2x at 4 with GOMAXPROCS ≥ 4). On smaller machines, where there are too
// few cores to scale onto, the ratios are logged, not enforced. Set
// SERVE_BENCH_OUT to also write the BENCH json snapshot the CI bench job
// uploads.
func TestServeBenchFloors(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent-load harness is not run in -short mode")
	}
	rep, err := RunServeBench(sharedEngine)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Hot {
		t.Logf("hot g=%d: %.0f req/s, p50 %.1fµs, p99 %.1fµs",
			p.Goroutines, p.ReqPerSec, p.P50Micros, p.P99Micros)
	}
	t.Logf("scaling %.2fx (8g vs 1g), GOMAXPROCS %d", rep.ScalingX, rep.CPUs)

	// Conservative single-threaded floor: roughly 10x under a 1-core
	// container's measured hot-path throughput, so it catches structural
	// regressions (a recompute on the hot path, an accidental O(n) scan),
	// not machine noise.
	const hotFloor = 10000.0 // req/s, single goroutine
	if rep.Hot[0].ReqPerSec < hotFloor {
		t.Errorf("hot single-threaded throughput %.0f req/s below pinned floor %.0f",
			rep.Hot[0].ReqPerSec, hotFloor)
	}

	ratio4 := 0.0
	if rep.Hot[0].ReqPerSec > 0 {
		ratio4 = rep.Hot[1].ReqPerSec / rep.Hot[0].ReqPerSec
	}
	switch {
	case runtime.GOMAXPROCS(0) >= 8:
		if rep.ScalingX < 3 {
			t.Errorf("8-goroutine scaling %.2fx below pinned floor 3x on %d-way machine",
				rep.ScalingX, runtime.GOMAXPROCS(0))
		}
	case runtime.GOMAXPROCS(0) >= 4:
		if ratio4 < 2 {
			t.Errorf("4-goroutine scaling %.2fx below pinned floor 2x on %d-way machine",
				ratio4, runtime.GOMAXPROCS(0))
		}
	default:
		t.Logf("GOMAXPROCS %d: scaling floors logged only", runtime.GOMAXPROCS(0))
	}

	if path := os.Getenv("SERVE_BENCH_OUT"); path != "" {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := WriteServeBenchReport(f, rep); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
	}
}

// TestCachedAtLeast10xFasterThanUncached pins the acceptance criterion:
// a cached request must be at least an order of magnitude cheaper than an
// uncached one. Benchmarks measure it precisely; this guards it in CI.
func TestCachedAtLeast10xFasterThanUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison is not run in -short mode")
	}
	cached := testing.Benchmark(BenchmarkServerAnalyzeCached)
	uncached := testing.Benchmark(BenchmarkServerAnalyzeUncached)
	cn, un := cached.NsPerOp(), uncached.NsPerOp()
	t.Logf("cached %d ns/op, uncached %d ns/op (%.1fx)", cn, un, float64(un)/float64(cn))
	if un < 10*cn {
		t.Fatalf("cached path only %.1fx faster than uncached (cached %d ns, uncached %d ns)",
			float64(un)/float64(cn), cn, un)
	}
}
