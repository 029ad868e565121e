package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestExactLRU(t *testing.T) {
	l := New[string](2)
	l.Add("a", "1")
	l.Add("b", "2")
	if v, ok := l.Get("a"); !ok || v != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	l.Add("c", "3") // "b" is now least recent and must go
	if _, ok := l.Get("b"); ok {
		t.Fatal("b survived eviction at capacity 2")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := l.Get(k); !ok {
			t.Fatalf("%s missing after eviction of b", k)
		}
	}
	if n := l.Evictions(); n != 1 {
		t.Fatalf("evictions = %d, want 1", n)
	}
	if l.Len() != 2 {
		t.Fatalf("len = %d, want 2", l.Len())
	}
}

func TestAddRefreshesExisting(t *testing.T) {
	l := New[int](2)
	l.Add("a", 1)
	l.Add("b", 2)
	l.Add("a", 10) // refresh, not insert: "a" becomes most recent
	l.Add("c", 3)  // evicts "b"
	if v, ok := l.Get("a"); !ok || v != 10 {
		t.Fatalf("Get(a) = %d, %v, want refreshed 10", v, ok)
	}
	if _, ok := l.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
}

func TestBounded(t *testing.T) {
	const capacity = 64
	l := New[int](capacity)
	for i := 0; i < 10*capacity; i++ {
		l.Add(fmt.Sprintf("key-%d", i), i)
	}
	if n := l.Len(); n != capacity {
		t.Fatalf("len = %d, want capacity %d", n, capacity)
	}
	if n := l.Evictions(); n != 9*capacity {
		t.Fatalf("evictions = %d, want %d", n, 9*capacity)
	}
}

// TestGetOrCreateSharesOneValue pins the memoization contract: concurrent
// callers for one key must all receive the same created value.
func TestGetOrCreateSharesOneValue(t *testing.T) {
	l := New[*int](64)
	const goroutines = 16
	got := make([]*int, goroutines)
	var created int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, _ := l.GetOrCreate("the-key", func() *int {
				mu.Lock()
				created++
				mu.Unlock()
				return new(int)
			})
			got[g] = v
		}(g)
	}
	wg.Wait()
	if created != 1 {
		t.Fatalf("create ran %d times, want once", created)
	}
	for g := 1; g < goroutines; g++ {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d received a different value", g)
		}
	}
}

func TestDumpOrder(t *testing.T) {
	l := New[int](4)
	for i, k := range []string{"a", "b", "c", "d"} {
		l.Add(k, i)
	}
	l.Get("a") // a becomes most recent: order is now b, c, d, a
	dump := l.Dump()
	want := []string{"b", "c", "d", "a"}
	if len(dump) != len(want) {
		t.Fatalf("dump has %d entries, want %d", len(dump), len(want))
	}
	for i, e := range dump {
		if e.Key != want[i] {
			t.Fatalf("dump[%d] = %s, want %s (least-recent first)", i, e.Key, want[i])
		}
	}
}

// TestDumpReloadRoundTrip checks the snapshot contract: re-adding a dump in
// order into a fresh cache keeps every entry and reproduces the recency
// order exactly.
func TestDumpReloadRoundTrip(t *testing.T) {
	src := New[int](128)
	for i := 0; i < 100; i++ {
		src.Add(fmt.Sprintf("key-%d", i), i)
	}
	dump := src.Dump()
	if len(dump) != 100 {
		t.Fatalf("dump has %d entries, want 100", len(dump))
	}
	dst := New[int](128)
	for _, e := range dump {
		dst.Add(e.Key, e.Val)
	}
	if dst.Len() != 100 {
		t.Fatalf("reloaded %d entries, want 100", dst.Len())
	}
	for i, e := range dst.Dump() {
		if e != dump[i] {
			t.Fatalf("reloaded dump[%d] = %v, want %v", i, e, dump[i])
		}
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		if v, ok := dst.Get(k); !ok || v != i {
			t.Fatalf("reloaded %s = %d, %v", k, v, ok)
		}
	}
}

// TestConcurrentChurn hammers all operations from many goroutines under a
// tight capacity so eviction churn races with reads; run with -race.
func TestConcurrentChurn(t *testing.T) {
	l := New[int](128)
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("key-%d", (g*31+i)%512)
				switch i % 3 {
				case 0:
					l.Add(k, i)
				case 1:
					l.Get(k)
				default:
					l.GetOrCreate(k, func() int { return i })
				}
			}
		}(g)
	}
	wg.Wait()
	if n := l.Len(); n > 128 {
		t.Fatalf("len = %d exceeds capacity under churn", n)
	}
}
