package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const snapTestPath = "/v1/analyze?domain=wordlm&params=1.03e9&batch=128"

// warmServer builds a server and fills its cache with one analyze
// response.
func warmServer(t *testing.T) *Server {
	t.Helper()
	s := newTestServer(Config{CacheEntries: 16})
	rec, _ := get(t, s, snapTestPath)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm request = %d %s", rec.Code, rec.Body)
	}
	return s
}

// TestSnapshotRoundTrip pins the headline property: a snapshot written by
// one server restores into a fresh server whose first request for the
// saved key is a cache hit — zero recomputation.
func TestSnapshotRoundTrip(t *testing.T) {
	src := warmServer(t)
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	dst := newTestServer(Config{CacheEntries: 16})
	n, err := dst.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d entries, want 1", n)
	}
	rec, body := get(t, dst, snapTestPath)
	if rec.Code != http.StatusOK {
		t.Fatalf("restored request = %d %s", rec.Code, rec.Body)
	}
	if body["step_seconds"] == nil {
		t.Fatalf("restored response missing payload: %s", rec.Body)
	}
	m := dst.Metrics()
	if m.CacheHits != 1 || m.CacheMisses != 0 {
		t.Fatalf("restored cache did not serve the hit: hits %d, misses %d", m.CacheHits, m.CacheMisses)
	}
}

// TestSnapshotRestoresEvictionOrder: a snapshot lists entries in exact
// least-recent-first order, so a same-capacity server restored from a full
// cache holds every entry and evicts the same key the source would.
func TestSnapshotRestoresEvictionOrder(t *testing.T) {
	const capacity = 16
	paths := analyzeBatchPaths(capacity)
	src := newTestServer(Config{CacheEntries: capacity})
	// Fill, then re-request the first half: those become most recent, so
	// paths[capacity/2] is the least recent entry.
	for _, p := range append(paths, paths[:capacity/2]...) {
		if rec, _ := get(t, src, p); rec.Code != http.StatusOK {
			t.Fatalf("%s = %d %s", p, rec.Code, rec.Body)
		}
	}
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst := newTestServer(Config{CacheEntries: capacity})
	if n, err := dst.ReadSnapshot(&buf); err != nil || n != capacity {
		t.Fatalf("restore = (%d, %v), want (%d, nil)", n, err, capacity)
	}

	keys := func(s *Server) []string {
		var ks []string
		for _, e := range s.cache.Dump() {
			ks = append(ks, e.Key)
		}
		return ks
	}
	oldest := keys(src)[0]
	src.cache.Add("extra", []byte("{}"))
	dst.cache.Add("extra", []byte("{}"))
	want, got := keys(src), keys(dst)
	if !slices.Equal(got, want) {
		t.Fatalf("restored order diverged after one more Add:\n got %q\nwant %q", got, want)
	}
	if slices.Contains(got, oldest) {
		t.Fatalf("least-recent key %q survived the eviction", oldest)
	}

	// The evicted entry is paths[capacity/2]: asking for it recomputes,
	// while a refreshed key is still a hit.
	misses := dst.Metrics().CacheMisses
	get(t, dst, paths[0])
	if m := dst.Metrics(); m.CacheMisses != misses {
		t.Fatalf("refreshed key %s missed after restore", paths[0])
	}
	get(t, dst, paths[capacity/2])
	if m := dst.Metrics(); m.CacheMisses != misses+1 {
		t.Fatalf("least-recent key %s still cached after eviction", paths[capacity/2])
	}
}

// TestSnapshotFileSaveLoad exercises the atomic file path: save, reload,
// no temp files left behind, and a missing file surfaces os.ErrNotExist
// for the boot path to treat as a cold start.
func TestSnapshotFileSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")

	src := warmServer(t)
	if err := src.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "cache.snap" {
		t.Fatalf("snapshot dir not clean after save: %v", entries)
	}

	dst := newTestServer(Config{CacheEntries: 16})
	if n, err := dst.LoadSnapshotFile(path); err != nil || n != 1 {
		t.Fatalf("load = (%d, %v), want (1, nil)", n, err)
	}

	cold := newTestServer(Config{CacheEntries: 16})
	if _, err := cold.LoadSnapshotFile(filepath.Join(dir, "absent.snap")); !os.IsNotExist(err) {
		t.Fatalf("missing snapshot: got %v, want fs.ErrNotExist", err)
	}
}

// TestSnapshotRejectsMismatch pins the staleness guards: a snapshot from a
// different schema version, binary revision, or analysis catalog is
// refused, leaving the cache cold rather than serving answers this build
// might compute differently.
func TestSnapshotRejectsMismatch(t *testing.T) {
	src := warmServer(t)
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var good cacheSnapshot
	if err := json.Unmarshal(buf.Bytes(), &good); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(*cacheSnapshot)
		want   string
	}{
		{"schema", func(s *cacheSnapshot) { s.Schema = snapshotSchema + 1 }, "schema"},
		{"build", func(s *cacheSnapshot) { s.Build = "deadbeef" }, "revision"},
		{"catalog", func(s *cacheSnapshot) { s.Catalog = "0000000000000000" }, "catalog"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := good
			tc.mutate(&snap)
			b, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			dst := newTestServer(Config{CacheEntries: 16})
			n, err := dst.ReadSnapshot(bytes.NewReader(b))
			if err == nil {
				t.Fatalf("stale snapshot accepted (%d entries)", n)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if dst.Metrics().CacheEntries != 0 {
				t.Fatalf("cache warmed from a rejected snapshot: %d entries", dst.Metrics().CacheEntries)
			}
		})
	}
}

// TestSnapshotCorruptFile: a truncated or garbage snapshot errors without
// breaking the server — it just starts cold.
func TestSnapshotCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := os.WriteFile(path, []byte("{\"schema\": 1, \"entr"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(Config{CacheEntries: 16})
	if _, err := s.LoadSnapshotFile(path); err == nil {
		t.Fatal("corrupt snapshot loaded without error")
	}
	rec, _ := get(t, s, snapTestPath)
	if rec.Code != http.StatusOK {
		t.Fatalf("server broken after corrupt snapshot: %d %s", rec.Code, rec.Body)
	}
}

// TestWarmupEndpoint replays a key list through POST /v1/admin/warmup and
// pins the contract: valid paths are computed into the cache (the next
// live request is a hit), invalid and admin paths are reported as
// failures without aborting the batch.
func TestWarmupEndpoint(t *testing.T) {
	s := newTestServer(Config{CacheEntries: 16})
	body, err := json.Marshal(warmupRequest{Paths: []string{
		snapTestPath,
		"/metrics",                // outside /v1: rejected
		"/v1/admin/warmup",        // recursion: rejected
		"http://evil/v1/analyze",  // absolute URL: rejected
		"/v1/analyze?domain=nope", // replays and fails with 400
	}})
	if err != nil {
		t.Fatal(err)
	}
	rec, resp := request(t, s, http.MethodPost, "/v1/admin/warmup", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("warmup = %d %s", rec.Code, rec.Body)
	}
	if got := resp["requested"].(float64); got != 5 {
		t.Fatalf("requested = %v, want 5", got)
	}
	if got := resp["warmed"].(float64); got != 1 {
		t.Fatalf("warmed = %v, want 1: %s", got, rec.Body)
	}
	if got := resp["failed"].(float64); got != 4 {
		t.Fatalf("failed = %v, want 4: %s", got, rec.Body)
	}

	rec, _ = get(t, s, snapTestPath)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-warmup request = %d", rec.Code)
	}
	if m := s.Metrics(); m.CacheHits < 1 {
		t.Fatalf("warmed key did not serve a hit: %+v", m)
	}
}

// TestWarmupValidation pins the request guards: a missing path list and an
// oversized one are both 400s.
func TestWarmupValidation(t *testing.T) {
	s := newTestServer(Config{})
	rec, _ := request(t, s, http.MethodPost, "/v1/admin/warmup", []byte(`{}`))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty warmup = %d, want 400", rec.Code)
	}

	paths := make([]string, maxWarmupPaths+1)
	for i := range paths {
		paths[i] = snapTestPath
	}
	body, _ := json.Marshal(warmupRequest{Paths: paths})
	rec, _ = request(t, s, http.MethodPost, "/v1/admin/warmup", body)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized warmup = %d, want 400", rec.Code)
	}
}
