package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
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

// benchPaths is the hot working set: distinct canonical keys, so the
// concurrent load spreads over many entries rather than replaying one.
func benchPaths() []string {
	paths := make([]string, 0, 32)
	for i := 0; i < 32; i++ {
		paths = append(paths, fmt.Sprintf(
			"/v1/analyze?domain=wordlm&params=1.03e9&batch=%d", 64+i))
	}
	return paths
}

// benchRequests warms every path through the server once (filling the
// cache) and returns the reusable request objects for the timed runs.
func benchRequests(s *Server, paths []string) ([]*http.Request, error) {
	reqs := make([]*http.Request, 0, len(paths))
	for _, p := range paths {
		req, err := http.NewRequest(http.MethodGet, p, nil)
		if err != nil {
			return nil, err
		}
		rec := &verdictRecorder{hdr: make(http.Header)}
		s.ServeHTTP(rec, req)
		if rec.status >= 400 {
			return nil, fmt.Errorf("warming %s: status %d", p, rec.status)
		}
		reqs = append(reqs, req)
	}
	return reqs, nil
}

// runServeLevel drives goroutines concurrent workers through the warmed
// request set, each issuing ops requests round-robin from a staggered
// offset, and returns the wall-clock throughput in requests/sec.
func runServeLevel(s *Server, reqs []*http.Request, goroutines, ops int) (float64, error) {
	fails := make([]int, goroutines)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := &verdictRecorder{hdr: make(http.Header)}
			for i := 0; i < ops; i++ {
				s.ServeHTTP(rec, reqs[(g*7+i)%len(reqs)])
				if rec.status >= 400 {
					fails[g]++
				}
				rec.status = 0
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	for g, n := range fails {
		if n > 0 {
			return 0, fmt.Errorf("bench worker %d: %d of %d requests failed", g, n, ops)
		}
	}
	return float64(goroutines*ops) / elapsed, nil
}

// TestServeBenchFloors is the regression gate on the cached serving hot
// path under concurrent load at 1, 4 and 8 goroutines, each level run
// twice keeping the faster pass (the first also absorbs scheduler
// warmup). Single-threaded hot throughput must stay above a pinned
// floor, and on machines with enough cores the concurrent levels must
// actually scale (8 goroutines ≥3x single-threaded with GOMAXPROCS ≥ 8,
// ≥2x at 4 with GOMAXPROCS ≥ 4). On smaller machines, where there are too
// few cores to scale onto, the ratios are logged, not enforced.
func TestServeBenchFloors(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent-load floor is not run in -short mode")
	}
	// MaxInFlight is raised above every concurrency level so the admission
	// limiter never sheds the load — the measurement is the cached read
	// path, not limiter behavior.
	s := New(Config{Engine: sharedEngine, CacheEntries: 1024, MaxInFlight: 256})
	defer s.Close()
	paths := benchPaths()
	reqs, err := benchRequests(s, paths)
	if err != nil {
		t.Fatal(err)
	}
	const ops = 5000 // requests per goroutine per pass
	levels := []int{1, 4, 8}
	rates := make([]float64, len(levels))
	for i, g := range levels {
		for pass := 0; pass < 2; pass++ {
			rate, err := runServeLevel(s, reqs, g, ops)
			if err != nil {
				t.Fatal(err)
			}
			rates[i] = max(rates[i], rate)
		}
	}
	if m := s.Metrics(); m.CacheMisses > int64(len(paths)) {
		t.Fatalf("hot path recomputed: %d misses for %d keys", m.CacheMisses, len(paths))
	}
	ratio4, ratio8 := rates[1]/rates[0], rates[2]/rates[0]
	t.Logf("hot req/s: %.0f at 1g, %.0f at 4g (%.2fx), %.0f at 8g (%.2fx); GOMAXPROCS %d",
		rates[0], rates[1], ratio4, rates[2], ratio8, runtime.GOMAXPROCS(0))

	// Conservative single-threaded floor: roughly 10x under a 1-core
	// container's measured hot-path throughput, so it catches structural
	// regressions (a recompute on the hot path, an accidental O(n) scan),
	// not machine noise.
	const hotFloor = 10000.0 // req/s, single goroutine
	if rates[0] < hotFloor {
		t.Errorf("hot single-threaded throughput %.0f req/s below pinned floor %.0f",
			rates[0], hotFloor)
	}
	switch {
	case runtime.GOMAXPROCS(0) >= 8:
		if ratio8 < 3 {
			t.Errorf("8-goroutine scaling %.2fx below pinned floor 3x on %d-way machine",
				ratio8, runtime.GOMAXPROCS(0))
		}
	case runtime.GOMAXPROCS(0) >= 4:
		if ratio4 < 2 {
			t.Errorf("4-goroutine scaling %.2fx below pinned floor 2x on %d-way machine",
				ratio4, runtime.GOMAXPROCS(0))
		}
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
