package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFlightGroupForgetsErrors is the forget-on-error regression test: a
// key whose computation fails transiently must be unregistered before its
// waiters wake, so the next request for that key retries instead of
// replaying the stale error forever.
func TestFlightGroupForgetsErrors(t *testing.T) {
	g := newFlightGroup()
	var calls atomic.Int64
	transient := errors.New("upstream hiccup")

	fn := func() ([]byte, error) {
		if calls.Add(1) == 1 {
			return nil, transient
		}
		return []byte("ok"), nil
	}

	c1, leader := g.do("k", fn)
	if !leader {
		t.Fatal("first caller must lead")
	}
	<-c1.done
	if !errors.Is(c1.err, transient) {
		t.Fatalf("first call err = %v, want transient failure", c1.err)
	}

	c2, leader := g.do("k", fn)
	if !leader {
		t.Fatal("retry after error must start a fresh computation, not join the dead one")
	}
	<-c2.done
	if c2.err != nil || string(c2.val) != "ok" {
		t.Fatalf("retry = (%q, %v), want (ok, nil)", c2.val, c2.err)
	}
	if calls.Load() != 2 {
		t.Fatalf("computation ran %d times, want 2", calls.Load())
	}
}

// TestFlightGroupForgetsPanics: same contract when the computation panics —
// the key unregisters, waiters see the panic as an error, and a retry
// computes afresh.
func TestFlightGroupForgetsPanics(t *testing.T) {
	g := newFlightGroup()
	var calls atomic.Int64
	fn := func() ([]byte, error) {
		if calls.Add(1) == 1 {
			panic("boom")
		}
		return []byte("ok"), nil
	}

	c1, _ := g.do("k", fn)
	<-c1.done
	if !errors.Is(c1.err, errComputePanic) {
		t.Fatalf("panic surfaced as %v, want errComputePanic", c1.err)
	}
	c2, leader := g.do("k", fn)
	if !leader {
		t.Fatal("retry after panic must lead")
	}
	<-c2.done
	if c2.err != nil || string(c2.val) != "ok" {
		t.Fatalf("retry = (%q, %v), want (ok, nil)", c2.val, c2.err)
	}
}

// TestFlightGroupDistinctKeysLeadIndependently: concurrent do calls on
// distinct keys each lead their own computation (no false coalescing
// across keys) and all complete.
func TestFlightGroupDistinctKeysLeadIndependently(t *testing.T) {
	g := newFlightGroup()
	var wg sync.WaitGroup
	var leaders atomic.Int64
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("key-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, leader := g.do(key, func() ([]byte, error) { return []byte(key), nil })
			if leader {
				leaders.Add(1)
			}
			<-c.done
			if string(c.val) != key {
				t.Errorf("key %s got %q", key, c.val)
			}
		}()
	}
	wg.Wait()
	if leaders.Load() != 32 {
		t.Fatalf("%d leaders for 32 distinct keys", leaders.Load())
	}
}

// TestServerRetriesAfterTransientComputeError drives the same contract
// through respondCached: a request whose computation fails transiently
// answers with an error, and the *next* request for the same key
// recomputes and succeeds — nothing stale is cached or coalesced onto.
func TestServerRetriesAfterTransientComputeError(t *testing.T) {
	s := newTestServer(Config{})
	var calls atomic.Int64
	compute := func() (any, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("transient backend failure")
		}
		return map[string]string{"answer": "42"}, nil
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/analyze", nil)
	rec := httptest.NewRecorder()
	s.respondCached(rec, req, "transient-key", compute)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("failed computation = %d, want 422", rec.Code)
	}

	rec = httptest.NewRecorder()
	s.respondCached(rec, req, "transient-key", compute)
	if rec.Code != http.StatusOK {
		t.Fatalf("retry = %d %s, want 200", rec.Code, rec.Body.String())
	}

	// Third request: the success must have been cached.
	rec = httptest.NewRecorder()
	s.respondCached(rec, req, "transient-key", compute)
	if rec.Code != http.StatusOK {
		t.Fatalf("cached retry = %d, want 200", rec.Code)
	}
	if calls.Load() != 2 {
		t.Fatalf("computation ran %d times, want 2 (fail, succeed, hit)", calls.Load())
	}
}
