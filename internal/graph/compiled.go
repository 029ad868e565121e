package graph

import (
	"fmt"

	"catamount/internal/symbolic"
)

// Compiled is a precompiled analysis bundle for one graph: every node's
// FLOP/byte expression and every tensor's byte expression lowered into
// slot-indexed programs against one shared symbol table, plus the headline
// totals. Build it once per graph, then sweep by writing slot values and
// running programs — no expression re-derivation, no tree walking, no map
// lookups per point.
//
// A Compiled is immutable after construction and safe for concurrent use;
// callers supply their own slot buffers (NewSlots), one per goroutine.
type Compiled struct {
	Graph *Graph
	// Syms maps symbol names to slot indices for every program below.
	Syms *symbolic.SymTab

	// NodeFLOPs / NodeBytes hold per-node cost programs in Nodes() order.
	NodeFLOPs []*symbolic.Program
	NodeBytes []*symbolic.Program
	// TensorBytes holds per-tensor byte-size programs in Tensors() order.
	TensorBytes []*symbolic.Program

	// ParamCount, TotalFLOPs, TotalBytes, and IO are the graph-level totals.
	ParamCount *symbolic.Program
	TotalFLOPs *symbolic.Program
	TotalBytes *symbolic.Program
	IO         *symbolic.Program

	// Deduplicated program tables. Training graphs repeat a handful of cost
	// expressions across thousands of structurally identical layers (a
	// 47k-node speech graph compiles to under a hundred unique node-cost
	// programs), so evaluation runs the unique programs and gathers per-node
	// values by index. NodeFLOPs[i] aliases costProgs[nodeFLOPIx[i]], and
	// likewise for NodeBytes and TensorBytes, so per-node iteration keeps
	// working unchanged.
	costProgs  []*symbolic.Program
	nodeFLOPIx []int32
	nodeByteIx []int32

	tensorProgs []*symbolic.Program
	tensorIx    []int32
}

// Compile derives and caches every node's cost expressions, then lowers all
// of them — plus per-tensor byte sizes and the graph totals — into programs
// sharing one symbol table.
func Compile(g *Graph) *Compiled {
	// Warm the per-node expression caches (synchronized, once per graph).
	g.WarmCosts()
	c := &Compiled{
		Graph:       g,
		NodeFLOPs:   make([]*symbolic.Program, len(g.nodes)),
		NodeBytes:   make([]*symbolic.Program, len(g.nodes)),
		TensorBytes: make([]*symbolic.Program, len(g.tensors)),
		nodeFLOPIx:  make([]int32, len(g.nodes)),
		nodeByteIx:  make([]int32, len(g.nodes)),
		tensorIx:    make([]int32, len(g.tensors)),
	}
	// Collect each distinct expression once, keyed by its canonical string
	// form (canonical constructors make equal strings mean equal trees), in
	// first-use order; every repeat points at the shared program.
	var costExprs, tensorExprs []symbolic.Expr
	costIndex := make(map[string]int32)
	tensorIndex := make(map[string]int32)
	intern := func(index map[string]int32, uniq *[]symbolic.Expr, e symbolic.Expr) int32 {
		key := e.String()
		if ix, ok := index[key]; ok {
			return ix
		}
		ix := int32(len(*uniq))
		index[key] = ix
		*uniq = append(*uniq, e)
		return ix
	}
	for i, n := range g.nodes {
		c.nodeFLOPIx[i] = intern(costIndex, &costExprs, n.FLOPs())
		c.nodeByteIx[i] = intern(costIndex, &costExprs, n.Bytes())
	}
	for i, t := range g.tensors {
		c.tensorIx[i] = intern(tensorIndex, &tensorExprs, t.Bytes())
	}
	// The symbol table covers every expression (the repeats add no symbols)
	// in sorted order, so slot order is deterministic.
	uniq := make([]symbolic.Expr, 0, len(costExprs)+len(tensorExprs))
	syms := symbolic.SymTabFor(append(append(uniq, costExprs...), tensorExprs...)...)
	c.Syms = syms
	c.costProgs = symbolic.CompileAll(costExprs, syms)
	c.tensorProgs = symbolic.CompileAll(tensorExprs, syms)
	for i := range g.nodes {
		c.NodeFLOPs[i] = c.costProgs[c.nodeFLOPIx[i]]
		c.NodeBytes[i] = c.costProgs[c.nodeByteIx[i]]
	}
	for i, ix := range c.tensorIx {
		c.TensorBytes[i] = c.tensorProgs[ix]
	}
	c.ParamCount = symbolic.Compile(g.ParamCount(), syms)
	c.TotalFLOPs = symbolic.Compile(g.TotalFLOPs(), syms)
	c.TotalBytes = symbolic.Compile(g.TotalBytes(), syms)
	c.IO = symbolic.Compile(g.AlgorithmicIO(), syms)
	g.derive.dropIndexes()
	return c
}

// Compile returns the graph's precompiled analysis bundle.
func (g *Graph) Compile() *Compiled { return Compile(g) }

// NewSlots allocates a slot buffer sized for the bundle's symbol table.
// Each concurrently evaluating goroutine needs its own buffer.
func (c *Compiled) NewSlots() []float64 { return c.Syms.NewSlots() }

// Bind fills slots from env. Every graph symbol must be bound; extra env
// entries are ignored.
func (c *Compiled) Bind(slots []float64, env symbolic.Env) error {
	return c.Syms.Bind(slots, env)
}

// NumCostPrograms returns the number of unique node-cost programs.
func (c *Compiled) NumCostPrograms() int { return len(c.costProgs) }

// NumTensorPrograms returns the number of unique tensor-byte programs.
func (c *Compiled) NumTensorPrograms() int { return len(c.tensorProgs) }

// CostIndexes returns the per-node indices (in Nodes() order) into the
// unique node-cost values produced by CostValues: node i's FLOPs are
// value flopIx[i], its bytes value byteIx[i]. The returned slices are
// shared and must not be modified.
func (c *Compiled) CostIndexes() (flopIx, byteIx []int32) {
	return c.nodeFLOPIx, c.nodeByteIx
}

// CostValues evaluates the unique node-cost programs for one slot binding
// into dst (grown as needed and returned). Per-node values are gathers
// through CostIndexes.
func (c *Compiled) CostValues(slots []float64, dst []float64) []float64 {
	if cap(dst) < len(c.costProgs) {
		dst = make([]float64, len(c.costProgs))
	}
	dst = dst[:len(c.costProgs)]
	for i, p := range c.costProgs {
		dst[i] = p.Eval(slots)
	}
	return dst
}

// EvalStats computes the headline numeric quantities for one slot binding.
// Per-node FLOPs and bytes are accumulated in Nodes() order (the unique
// programs are evaluated once and gathered by index, which leaves every
// summand and the summation order unchanged).
func (c *Compiled) EvalStats(slots []float64) Stats {
	uniq := c.CostValues(slots, nil)
	s := Stats{Params: c.ParamCount.Eval(slots)}
	for i := range c.nodeFLOPIx {
		s.FLOPs += uniq[c.nodeFLOPIx[i]]
		s.Bytes += uniq[c.nodeByteIx[i]]
	}
	if s.Bytes > 0 {
		s.Intensity = s.FLOPs / s.Bytes
	}
	return s
}

// FootprintScratch holds every buffer the footprint simulation needs —
// per-tensor byte sizes, consumer counters, liveness flags, the ready heap,
// and the traversal order — so repeated footprint evaluation allocates
// nothing in steady state. One per goroutine; the zero value is ready.
type FootprintScratch struct {
	uniq  []float64
	bytes []float64
	sim   footprintSim
}

// Footprint runs the schedule simulation for one slot binding, evaluating
// tensor sizes through the compiled programs, with fresh scratch. Loops
// calling this per point should use FootprintInto.
func (c *Compiled) Footprint(slots []float64, policy SchedulePolicy) (ScheduleResult, error) {
	return c.FootprintInto(slots, policy, &FootprintScratch{})
}

// FootprintInto is Footprint with fully reused simulation state: the
// unique tensor-byte programs are evaluated once and gathered per tensor
// by index. The returned Order aliases the scratch and is valid until the
// next call.
func (c *Compiled) FootprintInto(slots []float64, policy SchedulePolicy, fs *FootprintScratch) (ScheduleResult, error) {
	if cap(fs.uniq) < len(c.tensorProgs) {
		fs.uniq = make([]float64, len(c.tensorProgs))
	}
	fs.uniq = fs.uniq[:len(c.tensorProgs)]
	for i, p := range c.tensorProgs {
		fs.uniq[i] = p.Eval(slots)
	}
	if cap(fs.bytes) < len(c.TensorBytes) {
		fs.bytes = make([]float64, len(c.TensorBytes))
	}
	fs.bytes = fs.bytes[:len(c.TensorBytes)]
	for i, ix := range c.tensorIx {
		fs.bytes[i] = fs.uniq[ix]
	}
	return c.Graph.simulateFootprintInto(fs.bytes, policy, &fs.sim)
}

// NodeCosts evaluates every node's FLOPs and bytes into the provided slices
// (grown as needed) and returns them, in Nodes() order.
func (c *Compiled) NodeCosts(slots []float64, flops, bytes []float64) (f, b []float64) {
	uniq := c.CostValues(slots, nil)
	n := len(c.NodeFLOPs)
	if cap(flops) < n {
		flops = make([]float64, n)
	}
	if cap(bytes) < n {
		bytes = make([]float64, n)
	}
	flops, bytes = flops[:n], bytes[:n]
	for i := range c.nodeFLOPIx {
		flops[i] = uniq[c.nodeFLOPIx[i]]
		bytes[i] = uniq[c.nodeByteIx[i]]
	}
	return flops, bytes
}

// BindValues writes values for the named symbols into slots, for callers
// that sweep a few knobs without rebuilding an Env map per point. Symbols
// absent from the graph are ignored (a cost expression may not reference
// every knob).
func (c *Compiled) BindValues(slots []float64, names []string, values []float64) error {
	if len(names) != len(values) {
		return fmt.Errorf("graph: %d names but %d values", len(names), len(values))
	}
	for i, name := range names {
		if slot, ok := c.Syms.Slot(name); ok {
			slots[slot] = values[i]
		}
	}
	return nil
}
