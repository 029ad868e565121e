package graph

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"catamount/internal/symbolic"
	"catamount/internal/tensor"
)

// fakeOp is a minimal op for graph-level tests: fixed FLOPs, default bytes.
type fakeOp struct {
	kind  string
	flops float64
}

func (f fakeOp) Kind() string { return f.kind }
func (f fakeOp) FLOPs(*Node) symbolic.Expr {
	return symbolic.C(f.flops)
}
func (f fakeOp) Bytes(n *Node) symbolic.Expr { return IOBytes(n) }

func newTestGraph(t *testing.T) *Graph {
	t.Helper()
	return New("test")
}

func TestAddNodeWiring(t *testing.T) {
	g := newTestGraph(t)
	x := g.NewTensor("x", Input, tensor.F32, tensor.Of(4))
	y := g.NewTensor("y", Activation, tensor.F32, tensor.Of(4))
	n, err := g.AddNode("relu", "layer0", fakeOp{"relu", 4}, []*Tensor{x}, []*Tensor{y})
	if err != nil {
		t.Fatal(err)
	}
	if y.Producer != n {
		t.Fatal("producer not set")
	}
	if len(x.Consumers) != 1 || x.Consumers[0] != n {
		t.Fatal("consumer not set")
	}
	if y.Group != "layer0" {
		t.Fatalf("group = %q, want layer0", y.Group)
	}
}

func TestAddNodeDuplicateProducer(t *testing.T) {
	g := newTestGraph(t)
	x := g.NewTensor("x", Input, tensor.F32, tensor.Of(4))
	y := g.NewTensor("y", Activation, tensor.F32, tensor.Of(4))
	if _, err := g.AddNode("a", "", fakeOp{"a", 1}, []*Tensor{x}, []*Tensor{y}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddNode("b", "", fakeOp{"b", 1}, []*Tensor{x}, []*Tensor{y}); err == nil {
		t.Fatal("expected duplicate-producer error")
	}
}

func TestAddNodeCannotProduceParam(t *testing.T) {
	g := newTestGraph(t)
	w := g.NewTensor("w", Param, tensor.F32, tensor.Of(4))
	if _, err := g.AddNode("bad", "", fakeOp{"x", 1}, nil, []*Tensor{w}); err == nil {
		t.Fatal("expected error producing a param tensor")
	}
}

func TestUniqueTensorNames(t *testing.T) {
	g := newTestGraph(t)
	a := g.NewTensor("t", Activation, tensor.F32, tensor.Of(1))
	b := g.NewTensor("t", Activation, tensor.F32, tensor.Of(1))
	if a.Name == b.Name {
		t.Fatalf("names not uniquified: %q vs %q", a.Name, b.Name)
	}
	if _, ok := g.TensorByName(b.Name); !ok {
		t.Fatal("uniquified tensor not registered")
	}
}

func TestTopoOrderChain(t *testing.T) {
	g := newTestGraph(t)
	x := g.NewTensor("x", Input, tensor.F32, tensor.Of(4))
	mid := g.NewTensor("mid", Activation, tensor.F32, tensor.Of(4))
	out := g.NewTensor("out", Activation, tensor.F32, tensor.Of(4))
	g.MustAddNode("n2", "", fakeOp{"b", 1}, []*Tensor{mid}, []*Tensor{out})
	g.MustAddNode("n1", "", fakeOp{"a", 1}, []*Tensor{x}, []*Tensor{mid})
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0].Name != "n1" || order[1].Name != "n2" {
		t.Fatalf("bad order: %v", order)
	}
}

func TestCycleDetection(t *testing.T) {
	g := newTestGraph(t)
	t0 := g.NewTensor("t0", Activation, tensor.F32, tensor.Of(1))
	t1 := g.NewTensor("t1", Activation, tensor.F32, tensor.Of(1))
	g.MustAddNode("n1", "", fakeOp{"a", 1}, []*Tensor{t1}, []*Tensor{t0})
	g.MustAddNode("n2", "", fakeOp{"b", 1}, []*Tensor{t0}, []*Tensor{t1})
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("expected cycle error")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("expected validate error")
	}
}

func TestValidateOrphanActivation(t *testing.T) {
	g := newTestGraph(t)
	g.NewTensor("orphan", Activation, tensor.F32, tensor.Of(1))
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "no producer") {
		t.Fatalf("expected orphan error, got %v", err)
	}
}

func TestTotalsAndParamCount(t *testing.T) {
	g := newTestGraph(t)
	h := symbolic.S("h")
	w := g.NewTensor("w", Param, tensor.F32, tensor.Of(h, h))
	x := g.NewTensor("x", Input, tensor.F32, tensor.Of(1, h))
	y := g.NewTensor("y", Activation, tensor.F32, tensor.Of(1, h))
	g.MustAddNode("mm", "fc", fakeOp{"matmul", 100}, []*Tensor{x, w}, []*Tensor{y})

	env := symbolic.Env{"h": 8}
	p, err := g.ParamCount().Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	if p != 64 {
		t.Fatalf("params = %v, want 64", p)
	}
	st, err := g.EvalStats(env)
	if err != nil {
		t.Fatal(err)
	}
	if st.FLOPs != 100 {
		t.Fatalf("flops = %v", st.FLOPs)
	}
	// bytes = w(64*4) + x(8*4) + y(8*4) = 256+32+32
	if st.Bytes != 320 {
		t.Fatalf("bytes = %v, want 320", st.Bytes)
	}
	if st.Intensity != 100.0/320.0 {
		t.Fatalf("intensity = %v", st.Intensity)
	}
}

// TestDerivationMemo pins what the graph's derivation memo shares and what
// it keeps apart: equal (dtype size, shape) tensors share one byte
// expression, a different dtype size does not, repeated node signatures
// share one IOBytes sum, and the totals follow a graph that grows after
// they were first derived.
func TestDerivationMemo(t *testing.T) {
	g := newTestGraph(t)
	h := symbolic.S("h")
	a := g.NewTensor("a", Input, tensor.F32, tensor.Of(2, h))
	b := g.NewTensor("b", Activation, tensor.F32, tensor.Of(2, h))
	c := g.NewTensor("c", Activation, tensor.I32, tensor.Of(2, h))
	half := g.NewTensor("half", Activation, tensor.F16, tensor.Of(2, h))
	for _, tn := range []*Tensor{a, b, c, half} {
		if got, want := tn.Bytes().String(), tn.Shape.Bytes(tn.DType).String(); got != want {
			t.Errorf("%s bytes = %s, want %s", tn.Name, got, want)
		}
		if got, want := tn.NumElements().String(), tn.Shape.NumElements().String(); got != want {
			t.Errorf("%s elements = %s, want %s", tn.Name, got, want)
		}
	}
	if before := Derivations(g); a.Bytes() == nil || Derivations(g) != before {
		t.Error("a repeated Bytes call derived again")
	}

	n1 := g.MustAddNode("n1", "", fakeOp{"relu", 1}, []*Tensor{a}, []*Tensor{b})
	bytes1 := g.TotalBytes()
	d := g.NewTensor("d", Activation, tensor.F32, tensor.Of(2, h))
	n2 := g.MustAddNode("n2", "", fakeOp{"relu", 1}, []*Tensor{b}, []*Tensor{d})
	if IOBytes(n1).String() != IOBytes(n2).String() {
		t.Errorf("equal signatures: %s vs %s", IOBytes(n1), IOBytes(n2))
	}
	n3 := g.MustAddNode("n3", "", fakeOp{"relu", 1}, []*Tensor{d}, []*Tensor{half})
	if IOBytes(n3).String() == IOBytes(n1).String() {
		t.Errorf("f16 output shares the f32 signature's sum %s", IOBytes(n3))
	}
	env := symbolic.Env{"h": 8}
	if v := symbolic.MustEval(bytes1, env); v != 128 {
		t.Errorf("one-node total bytes = %v, want 128", v)
	}
	// n1, n2: 64+64 each; n3: 64 + 32.
	if v := symbolic.MustEval(g.TotalBytes(), env); v != 352 {
		t.Errorf("total bytes after growing the graph = %v, want 352", v)
	}
}

func TestFootprintChainFreesActivations(t *testing.T) {
	// x(100B) -> a(400B) -> b(400B) -> out(4B); greedy or fifo both must
	// free a before allocating out is not possible (b needs a), so peak is
	// x+a (500) then a+b (800) then b+out (404). Peak transient = 800.
	g := newTestGraph(t)
	x := g.NewTensor("x", Input, tensor.F32, tensor.Of(25))
	a := g.NewTensor("a", Activation, tensor.F32, tensor.Of(100))
	b := g.NewTensor("b", Activation, tensor.F32, tensor.Of(100))
	out := g.NewTensor("out", Activation, tensor.F32, tensor.Of(1))
	g.MustAddNode("n1", "", fakeOp{"f", 1}, []*Tensor{x}, []*Tensor{a})
	g.MustAddNode("n2", "", fakeOp{"f", 1}, []*Tensor{a}, []*Tensor{b})
	g.MustAddNode("n3", "", fakeOp{"f", 1}, []*Tensor{b}, []*Tensor{out})
	for _, pol := range []SchedulePolicy{PolicyFIFO, PolicyMemGreedy} {
		res, err := g.Footprint(nil, pol)
		if err != nil {
			t.Fatal(err)
		}
		if res.PeakTransientBytes != 800 {
			t.Fatalf("%v: transient peak = %v, want 800", pol, res.PeakTransientBytes)
		}
		if res.PersistentBytes != 0 {
			t.Fatalf("persistent = %v, want 0", res.PersistentBytes)
		}
		if len(res.Order) != 3 {
			t.Fatalf("order len = %d", len(res.Order))
		}
	}
}

func TestFootprintIncludesPersistent(t *testing.T) {
	g := newTestGraph(t)
	w := g.NewTensor("w", Param, tensor.F32, tensor.Of(1000)) // 4000 B
	m := g.NewTensor("m", State, tensor.F32, tensor.Of(1000)) // 4000 B
	x := g.NewTensor("x", Input, tensor.F32, tensor.Of(10))   // 40 B
	y := g.NewTensor("y", Activation, tensor.F32, tensor.Of(10))
	g.MustAddNode("n", "", fakeOp{"f", 1}, []*Tensor{x, w, m}, []*Tensor{y})
	res, err := g.Footprint(nil, PolicyMemGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if res.PersistentBytes != 8000 {
		t.Fatalf("persistent = %v, want 8000", res.PersistentBytes)
	}
	if res.PeakBytes != 8000+80 {
		t.Fatalf("peak = %v, want 8080", res.PeakBytes)
	}
}

func TestMemGreedyBeatsFIFOOnFanOut(t *testing.T) {
	// A producer feeds two consumers: one tiny reducer that frees a big
	// tensor, one that allocates another big tensor. Greedy should run the
	// reducer first. Construct so FIFO picks the allocator first.
	g := newTestGraph(t)
	x := g.NewTensor("x", Input, tensor.F32, tensor.Of(256)) // 1 KiB
	big := g.NewTensor("big", Activation, tensor.F32, tensor.Of(2048))
	big2 := g.NewTensor("big2", Activation, tensor.F32, tensor.Of(2048))
	small := g.NewTensor("small", Activation, tensor.F32, tensor.Of(1))
	sink := g.NewTensor("sink", Activation, tensor.F32, tensor.Of(1))

	g.MustAddNode("produce", "", fakeOp{"f", 1}, []*Tensor{x}, []*Tensor{big})
	// Insertion order: allocator first so FIFO is forced to inflate.
	g.MustAddNode("alloc", "", fakeOp{"f", 1}, []*Tensor{big}, []*Tensor{big2})
	g.MustAddNode("reduce", "", fakeOp{"f", 1}, []*Tensor{big}, []*Tensor{small})
	g.MustAddNode("join", "", fakeOp{"f", 1}, []*Tensor{big2, small}, []*Tensor{sink})

	fifo, err := g.Footprint(nil, PolicyFIFO)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := g.Footprint(nil, PolicyMemGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.PeakBytes > fifo.PeakBytes {
		t.Fatalf("greedy (%v) should not exceed fifo (%v)", greedy.PeakBytes, fifo.PeakBytes)
	}
}

func TestFootprintUnboundSymbolError(t *testing.T) {
	g := newTestGraph(t)
	x := g.NewTensor("x", Input, tensor.F32, tensor.Of(symbolic.S("b")))
	y := g.NewTensor("y", Activation, tensor.F32, tensor.Of(symbolic.S("b")))
	g.MustAddNode("n", "", fakeOp{"f", 1}, []*Tensor{x}, []*Tensor{y})
	if _, err := g.Footprint(map[string]float64{}, PolicyFIFO); err == nil {
		t.Fatal("expected unbound symbol error")
	}
}

func TestAllocatorSim(t *testing.T) {
	sim := AllocatorSim{CapacityBytes: 12e9, UsableFraction: 0.8}
	r := sim.Apply(5e9)
	if r.Swapping || r.DeviceBytes != 5e9 {
		t.Fatalf("unexpected: %+v", r)
	}
	r = sim.Apply(20e9)
	if !r.Swapping {
		t.Fatal("expected swapping")
	}
	if r.DeviceBytes != 9.6e9 {
		t.Fatalf("device = %v, want 9.6e9", r.DeviceBytes)
	}
	if r.SwappedBytes != 20e9-9.6e9 {
		t.Fatalf("swapped = %v", r.SwappedBytes)
	}
}

func TestGroupAccounting(t *testing.T) {
	g := newTestGraph(t)
	h := symbolic.S("h")
	w1 := g.NewTensor("w1", Param, tensor.F32, tensor.Of(h, h))
	w1.Group = "embed"
	w2 := g.NewTensor("w2", Param, tensor.F32, tensor.Of(h, h))
	w2.Group = "output"
	x := g.NewTensor("x", Input, tensor.F32, tensor.Of(1, h))
	m := g.NewTensor("m", Activation, tensor.F32, tensor.Of(1, h))
	y := g.NewTensor("y", Activation, tensor.F32, tensor.Of(1, h))
	g.MustAddNode("mm1", "embed", fakeOp{"matmul", 10}, []*Tensor{x, w1}, []*Tensor{m})
	g.MustAddNode("mm2", "output", fakeOp{"matmul", 20}, []*Tensor{m, w2}, []*Tensor{y})

	env := symbolic.Env{"h": 4}
	gf := g.GroupFLOPs()
	if v, _ := gf["embed"].Eval(env); v != 10 {
		t.Fatalf("embed flops = %v", v)
	}
	if v, _ := gf["output"].Eval(env); v != 20 {
		t.Fatalf("output flops = %v", v)
	}
	pb := g.GroupParamBytes()
	if v, _ := pb["embed"].Eval(env); v != 64 {
		t.Fatalf("embed param bytes = %v", v)
	}
	groups := g.Groups()
	if len(groups) != 2 || groups[0] != "embed" || groups[1] != "output" {
		t.Fatalf("groups = %v", groups)
	}
	fp, err := g.GroupFootprints(symbolic.Env{"h": 4}, PolicyMemGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if fp["embed"] <= 0 || fp["output"] <= 0 {
		t.Fatalf("group footprints = %v", fp)
	}
	names := SortedGroupNames(fp)
	if len(names) != 2 || names[0] != "embed" {
		t.Fatalf("sorted names = %v", names)
	}
}

// TestDerivationMemoConcurrent fills one fresh graph's memo from several
// goroutines at once, through every entry point that derives (the tree
// walk footprint, Compile and the totals); run under -race.
func TestDerivationMemoConcurrent(t *testing.T) {
	g := buildChainGraph(64)
	env := symbolic.Env{"h": 16}
	want, err := buildChainGraph(64).Footprint(env, PolicyMemGreedy)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			res, err := g.Footprint(env, PolicyMemGreedy)
			if err == nil && res.PeakBytes != want.PeakBytes {
				err = fmt.Errorf("peak %v, want %v", res.PeakBytes, want.PeakBytes)
			}
			errs <- err
		}()
		go func() {
			defer wg.Done()
			Compile(g)
			g.TotalBytes()
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
