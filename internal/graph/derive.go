package graph

import (
	"encoding/binary"
	"strconv"
	"sync"

	"catamount/internal/symbolic"
)

// derivations memoizes the symbolic expressions a graph derives again and
// again from its wiring. An unrolled RNN repeats a handful of tensor shapes
// and node signatures in every timestep (a 47k-node speech graph has a few
// dozen distinct tensor sizes), so deriving each distinct expression once,
// keyed by its canonical form, replaces tens of thousands of identical
// symbolic.Mul/Add simplifications with a map lookup.
//
// The memo belongs to one Graph and is dropped with it: nothing is shared
// between graphs, so a second graph pays exactly the derivation work of the
// first. Tensors must not change shape or dtype once derived from (no code
// path does).
type derivations struct {
	// mu guards everything below except the totals, and every tensor's
	// numel and size fields. It is never held while calling into an Op.
	mu sync.Mutex
	// numels indexes the distinct element counts in numelExprs by
	// canonical shape; sizes indexes the distinct tensor byte expressions
	// in sizeExprs by element size and canonical element count.
	numels     map[string]int32
	numelExprs []symbolic.Expr
	sizes      map[sizeKey]int32
	sizeExprs  []symbolic.Expr
	// ioBytes maps a node's operand size indexes, in IOBytes order, to the
	// simplified sum; products maps a sequence of canonical factors to
	// their product.
	ioBytes  map[string]symbolic.Expr
	products map[string]symbolic.Expr
	// shapeKey, ioKey and productKey are reusable buffers the lookup keys
	// are built in, so a lookup that hits allocates nothing.
	shapeKey, ioKey, productKey []byte

	// totalsMu guards the graph totals, derived once for the graph size
	// recorded in totalsAt (a graph still being extended derives afresh).
	totalsMu                   sync.Mutex
	totalsAt                   [2]int
	params, flops, bytes, algo symbolic.Expr

	// derived counts expressions derived rather than served from the memo.
	derived int
	// uncached makes every lookup derive afresh; the equivalence tests use
	// it as the oracle for the memoized path.
	uncached bool
}

// tensorNumel returns t's element count, derived once per distinct shape.
func (d *derivations) tensorNumel(t *Tensor) symbolic.Expr {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.uncached {
		d.derived++
		return t.Shape.NumElements()
	}
	return d.numelExprs[d.numel(t)]
}

// tensorBytes returns t's byte size, derived once per distinct (element
// size, element count).
func (d *derivations) tensorBytes(t *Tensor) symbolic.Expr {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.uncached {
		d.derived++
		return t.Shape.Bytes(t.DType)
	}
	return d.sizeExprs[d.size(t)]
}

// ioBytesOf returns IOBytes for n, derived once per distinct sequence of
// operand sizes.
func (d *derivations) ioBytesOf(n *Node) symbolic.Expr {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.uncached {
		d.derived++
		parts := make([]symbolic.Expr, 0, len(n.Inputs)+len(n.Outputs))
		for _, ts := range [2][]*Tensor{n.Inputs, n.Outputs} {
			for _, t := range ts {
				parts = append(parts, t.Shape.Bytes(t.DType))
			}
		}
		return symbolic.Add(parts...)
	}
	d.ioKey = d.ioKey[:0]
	for _, ts := range [2][]*Tensor{n.Inputs, n.Outputs} {
		for _, t := range ts {
			d.ioKey = binary.LittleEndian.AppendUint32(d.ioKey, uint32(d.size(t)))
		}
	}
	if e, ok := d.ioBytes[string(d.ioKey)]; ok {
		return e
	}
	parts := make([]symbolic.Expr, 0, len(d.ioKey)/4)
	for i := 0; i < len(d.ioKey); i += 4 {
		parts = append(parts, d.sizeExprs[binary.LittleEndian.Uint32(d.ioKey[i:])])
	}
	e := symbolic.Add(parts...)
	if d.ioBytes == nil {
		d.ioBytes = make(map[string]symbolic.Expr)
	}
	d.ioBytes[string(d.ioKey)] = e
	d.derived++
	return e
}

// sizeKey identifies a tensor byte expression: element size in bytes and
// the canonical element count.
type sizeKey struct {
	elem  int
	numel string
}

// product returns symbolic.Mul(factors...), derived once per distinct
// sequence of canonical factors.
func (d *derivations) product(factors []symbolic.Expr) symbolic.Expr {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.uncached {
		d.derived++
		return symbolic.Mul(factors...)
	}
	d.productKey = appendKey(d.productKey[:0], factors)
	if e, ok := d.products[string(d.productKey)]; ok {
		return e
	}
	e := symbolic.Mul(factors...)
	if d.products == nil {
		d.products = make(map[string]symbolic.Expr)
	}
	d.products[string(d.productKey)] = e
	d.derived++
	return e
}

// appendKey appends a lookup key for a sequence of expressions: each one's
// canonical string, tagged with its kind so a constant can never collide
// with a symbol of the same spelling.
func appendKey(key []byte, exprs []symbolic.Expr) []byte {
	for _, e := range exprs {
		switch v := e.(type) {
		case symbolic.Const:
			key = strconv.AppendFloat(append(key, 'c'), float64(v), 'g', -1, 64)
		case symbolic.Symbol:
			key = append(append(key, 's'), v...)
		default:
			key = append(append(key, 'e'), v.String()...)
		}
		key = append(key, 0)
	}
	return key
}

// numel memoizes t's index into numelExprs. d.mu must be held.
func (d *derivations) numel(t *Tensor) int32 {
	if t.numel > 0 {
		return t.numel - 1
	}
	d.shapeKey = appendKey(d.shapeKey[:0], t.Shape)
	ix, ok := d.numels[string(d.shapeKey)]
	if !ok {
		if d.numels == nil {
			d.numels = make(map[string]int32)
		}
		ix = int32(len(d.numelExprs))
		d.numelExprs = append(d.numelExprs, t.Shape.NumElements())
		d.numels[string(d.shapeKey)] = ix
		d.derived++
	}
	t.numel = ix + 1
	return ix
}

// size memoizes t's index into sizeExprs. d.mu must be held.
func (d *derivations) size(t *Tensor) int32 {
	if t.size > 0 {
		return t.size - 1
	}
	n := d.numelExprs[d.numel(t)]
	key := sizeKey{t.DType.Size(), n.String()}
	ix, ok := d.sizes[key]
	if !ok {
		if d.sizes == nil {
			d.sizes = make(map[sizeKey]int32)
		}
		// Shape.Bytes, from the memoized element count.
		ix = int32(len(d.sizeExprs))
		d.sizeExprs = append(d.sizeExprs, symbolic.Mul(n, symbolic.C(float64(key.elem))))
		d.sizes[key] = ix
		d.derived++
	}
	t.size = ix + 1
	return ix
}

// dropIndexes releases the lookup tables once every node and tensor
// expression has been derived: the shared expressions stay reachable from
// the nodes, tensors and sizeExprs, and a later derivation (a graph grown
// after compiling) rebuilds the tables as it goes.
func (d *derivations) dropIndexes() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.numels, d.sizes, d.ioBytes, d.products = nil, nil, nil, nil
	d.shapeKey, d.ioKey, d.productKey = nil, nil, nil
}

// total returns *slot, deriving it with fn once per graph size.
func (g *Graph) total(slot *symbolic.Expr, fn func() symbolic.Expr) symbolic.Expr {
	d := &g.derive
	d.totalsMu.Lock()
	defer d.totalsMu.Unlock()
	if at := [2]int{len(g.nodes), len(g.tensors)}; at != d.totalsAt {
		d.totalsAt = at
		d.params, d.flops, d.bytes, d.algo = nil, nil, nil, nil
	}
	if *slot == nil || d.uncached {
		*slot = fn()
		d.mu.Lock()
		d.derived++
		d.mu.Unlock()
	}
	return *slot
}
