package graph

import (
	"math"
	"sync"
	"testing"

	"catamount/internal/symbolic"
)

func TestCompiledMatchesTreeEval(t *testing.T) {
	g := buildChainGraph(64)
	c := Compile(g)
	env := symbolic.Env{"h": 384}

	want, err := g.EvalStats(env)
	if err != nil {
		t.Fatal(err)
	}
	slots := c.NewSlots()
	if err := c.Bind(slots, env); err != nil {
		t.Fatal(err)
	}
	got := c.EvalStats(slots)
	if got.Params != want.Params || got.FLOPs != want.FLOPs || got.Bytes != want.Bytes {
		t.Fatalf("compiled stats %+v != tree stats %+v", got, want)
	}

	for _, policy := range []SchedulePolicy{PolicyFIFO, PolicyMemGreedy} {
		wantFP, err := g.Footprint(env, policy)
		if err != nil {
			t.Fatal(err)
		}
		gotFP, err := c.Footprint(slots, policy)
		if err != nil {
			t.Fatal(err)
		}
		if gotFP.PeakBytes != wantFP.PeakBytes ||
			gotFP.PersistentBytes != wantFP.PersistentBytes ||
			gotFP.PeakTransientBytes != wantFP.PeakTransientBytes {
			t.Fatalf("%v: compiled footprint %+v != tree %+v", policy, gotFP, wantFP)
		}
		if len(gotFP.Order) != len(wantFP.Order) {
			t.Fatalf("%v: order lengths differ", policy)
		}
	}
}

// TestCompiledDedup pins the program-deduplication invariants: per-node
// program slices alias the unique tables, and a chain graph of repeated
// layers compiles to far fewer unique programs than nodes.
func TestCompiledDedup(t *testing.T) {
	g := buildChainGraph(64)
	c := Compile(g)

	if c.NumCostPrograms() >= 2*len(c.NodeFLOPs) {
		t.Fatalf("no dedup: %d unique cost programs for %d nodes", c.NumCostPrograms(), len(c.NodeFLOPs))
	}
	if c.NumTensorPrograms() >= len(c.TensorBytes) {
		t.Fatalf("no dedup: %d unique tensor programs for %d tensors", c.NumTensorPrograms(), len(c.TensorBytes))
	}
	flopIx, byteIx := c.CostIndexes()
	for i := range c.NodeFLOPs {
		if c.NodeFLOPs[i] != c.costProgs[flopIx[i]] || c.NodeBytes[i] != c.costProgs[byteIx[i]] {
			t.Fatalf("node %d does not alias its unique programs", i)
		}
	}
	for i, ix := range c.tensorIx {
		if c.TensorBytes[i] != c.tensorProgs[ix] {
			t.Fatalf("tensor %d does not alias its unique program", i)
		}
	}
}

// TestFootprintIntoReusedScratchMatchesTreeWalk runs FootprintInto with one
// scratch reused across bindings and both policies, and requires every
// result — peak, persistent and transient bytes, and the traversal order —
// to equal the tree-walking Graph.Footprint.
func TestFootprintIntoReusedScratchMatchesTreeWalk(t *testing.T) {
	g := buildChainGraph(48)
	c := Compile(g)
	slots := c.NewSlots()
	var fp FootprintScratch
	for _, policy := range []SchedulePolicy{PolicyFIFO, PolicyMemGreedy} {
		for _, h := range []float64{16, 96.5, 384, 1024} {
			env := symbolic.Env{"h": h}
			if err := c.Bind(slots, env); err != nil {
				t.Fatal(err)
			}
			want, err := g.Footprint(env, policy)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.FootprintInto(slots, policy, &fp)
			if err != nil {
				t.Fatal(err)
			}
			if got.PeakBytes != want.PeakBytes || got.PersistentBytes != want.PersistentBytes ||
				got.PeakTransientBytes != want.PeakTransientBytes || len(got.Order) != len(want.Order) {
				t.Fatalf("h=%v %v: FootprintInto %+v != Footprint %+v", h, policy, got, want)
			}
			for i := range want.Order {
				if got.Order[i] != want.Order[i] {
					t.Fatalf("h=%v %v: order diverges at %d", h, policy, i)
				}
			}
		}
	}
}

// TestFootprintIntoSteadyStateAllocs pins the point of FootprintScratch:
// warm footprint evaluation does not allocate.
func TestFootprintIntoSteadyStateAllocs(t *testing.T) {
	g := buildChainGraph(32)
	c := Compile(g)
	slots := c.NewSlots()
	hSlot, _ := c.Syms.Slot("h")
	slots[hSlot] = 256
	var fp FootprintScratch
	if _, err := c.FootprintInto(slots, PolicyMemGreedy, &fp); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.FootprintInto(slots, PolicyMemGreedy, &fp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("warm FootprintInto allocates %v times per run", allocs)
	}
}

func TestCompiledNodeCosts(t *testing.T) {
	g := buildChainGraph(8)
	c := g.Compile()
	env := symbolic.Env{"h": 100}
	slots := c.NewSlots()
	if err := c.Bind(slots, env); err != nil {
		t.Fatal(err)
	}
	flops, bytes := c.NodeCosts(slots, nil, nil)
	nodes := g.Nodes()
	if len(flops) != len(nodes) || len(bytes) != len(nodes) {
		t.Fatalf("cost lengths %d/%d, want %d", len(flops), len(bytes), len(nodes))
	}
	for i, n := range nodes {
		wf := symbolic.MustEval(n.FLOPs(), env)
		wb := symbolic.MustEval(n.Bytes(), env)
		if flops[i] != wf || bytes[i] != wb {
			t.Fatalf("node %s: compiled (%g, %g) != tree (%g, %g)", n.Name, flops[i], bytes[i], wf, wb)
		}
	}
}

func TestCompiledBindValues(t *testing.T) {
	g := buildChainGraph(4)
	c := g.Compile()
	slots := c.NewSlots()
	if err := c.BindValues(slots, []string{"h", "not-a-symbol"}, []float64{64, 99}); err != nil {
		t.Fatal(err)
	}
	want, err := g.EvalStats(symbolic.Env{"h": 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.EvalStats(slots); got.FLOPs != want.FLOPs {
		t.Fatalf("FLOPs %g != %g", got.FLOPs, want.FLOPs)
	}
	if err := c.BindValues(slots, []string{"h"}, nil); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestCompiledConcurrentEval(t *testing.T) {
	g := buildChainGraph(128)
	c := g.Compile()
	ref, err := g.EvalStats(symbolic.Env{"h": 256})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots := c.NewSlots()
			var fp FootprintScratch
			for i := 0; i < 50; i++ {
				if err := c.Bind(slots, symbolic.Env{"h": 256}); err != nil {
					errs <- err
					return
				}
				if s := c.EvalStats(slots); math.Abs(s.FLOPs-ref.FLOPs) > 0 {
					errs <- errMismatch
					return
				}
				if _, err := c.FootprintInto(slots, PolicyMemGreedy, &fp); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMismatch = errorString("concurrent eval mismatch")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestColdGraphConcurrentAnalysis(t *testing.T) {
	// A freshly built (never analyzed) graph must be safe to analyze from
	// several goroutines at once: WarmCosts synchronizes the per-node
	// expression cache fill behind every graph-level entry point.
	g := buildChainGraph(64)
	env := symbolic.Env{"h": 128}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				if _, err := g.EvalStats(env); err != nil {
					errs <- err
				}
				return
			}
			c := Compile(g)
			slots := c.NewSlots()
			if err := c.Bind(slots, env); err != nil {
				errs <- err
			}
			_ = c.EvalStats(slots)
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
