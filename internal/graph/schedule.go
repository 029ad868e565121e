package graph

import (
	"fmt"
	"sort"
)

// SchedulePolicy selects the traversal heuristic used when estimating the
// minimal memory footprint. The true minimum over all topological orders is
// NP-hard; the paper's artifact likewise uses a single-traversal estimate.
type SchedulePolicy int

// Scheduling policies.
const (
	// PolicyFIFO executes ready nodes in insertion order, mimicking a
	// straightforward framework executor.
	PolicyFIFO SchedulePolicy = iota
	// PolicyMemGreedy executes the ready node with the smallest net live-set
	// growth (allocation minus frees), a strong footprint-minimizing
	// heuristic for training graphs.
	PolicyMemGreedy
)

func (p SchedulePolicy) String() string {
	switch p {
	case PolicyFIFO:
		return "fifo"
	case PolicyMemGreedy:
		return "mem-greedy"
	}
	return "unknown"
}

// ScheduleResult reports the footprint of one simulated traversal.
type ScheduleResult struct {
	// PeakBytes is the maximum concurrent allocation: persistent tensors
	// plus the peak transient live set. This is the paper's "minimal memory
	// footprint" estimate.
	PeakBytes float64
	// PersistentBytes covers Param and State tensors (weights + optimizer
	// slots), resident for the entire step.
	PersistentBytes float64
	// PeakTransientBytes is the activation/gradient peak alone.
	PeakTransientBytes float64
	// Order is the traversal that produced the estimate.
	Order []*Node
}

// Footprint simulates a topological traversal under env and returns the
// memory footprint estimate for one training step. Hot paths that sweep many
// evaluation points should compile the graph once and use
// Compiled.FootprintInto, which replaces the per-tensor tree walk below
// with precompiled programs.
func (g *Graph) Footprint(env map[string]float64, policy SchedulePolicy) (ScheduleResult, error) {
	// Pre-evaluate tensor byte sizes.
	bytes := make([]float64, len(g.tensors))
	for _, t := range g.tensors {
		v, err := t.Bytes().Eval(env)
		if err != nil {
			return ScheduleResult{}, fmt.Errorf("tensor %s: %w", t.Name, err)
		}
		bytes[t.id] = v
	}
	return g.simulateFootprintInto(bytes, policy, &footprintSim{})
}

// footprintSim holds every buffer one traversal simulation needs. Reusing
// one across calls removes the multi-megabyte per-call allocations that
// dominated sweep memory traffic on large graphs (a 47k-node speech graph
// needs ~2.3 MB of counters, flags, heap state, and order storage per
// simulation).
type footprintSim struct {
	remaining []int
	live      []bool
	indeg     []int
	order     []*Node
	heap      nodeHeap
}

// reset grows the buffers for a graph with nt tensors and nn nodes and
// clears the state the simulation reads before writing.
func (fs *footprintSim) reset(nt, nn int) {
	if cap(fs.remaining) < nt {
		fs.remaining = make([]int, nt)
		fs.live = make([]bool, nt)
	}
	fs.remaining = fs.remaining[:nt]
	fs.live = fs.live[:nt]
	clear(fs.live)
	if cap(fs.indeg) < nn {
		fs.indeg = make([]int, nn)
	}
	fs.indeg = fs.indeg[:nn]
	clear(fs.indeg)
	if cap(fs.order) < nn {
		fs.order = make([]*Node, 0, nn)
	}
	fs.order = fs.order[:0]
	fs.heap.reset(nn)
}

// simulateFootprintInto runs the traversal simulation over pre-evaluated
// per-tensor byte sizes (indexed by tensor id); it is the shared core of
// Graph.Footprint and Compiled.FootprintInto. The returned Order aliases
// fs.order and is valid until fs is reused.
//
// The ready set is an indexed min-heap keyed by the policy's priority
// (net live-set delta for mem-greedy, insertion order for FIFO), with
// decrease-key maintenance instead of a full rescan per pick. A ready
// node's delta can only change when one of its input tensors drops to a
// single remaining consumer — its own inputs cannot be freed and its
// outputs cannot become live while it waits — so adjusting exactly that
// consumer keeps every key equal to a fresh recomputation.
func (g *Graph) simulateFootprintInto(bytes []float64, policy SchedulePolicy, fs *footprintSim) (ScheduleResult, error) {
	fs.reset(len(g.tensors), len(g.nodes))

	var persistent float64
	for _, t := range g.tensors {
		if t.Persistent() {
			persistent += bytes[t.id]
		}
	}

	// Remaining consumer counts for freeable tensors.
	remaining := fs.remaining
	for _, t := range g.tensors {
		remaining[t.id] = len(t.Consumers)
	}

	// Transient live set: graph inputs are staged in before the step starts.
	live := fs.live
	var cur float64
	for _, t := range g.tensors {
		if t.Kind == Input {
			live[t.id] = true
			cur += bytes[t.id]
		}
	}
	peakTransient := cur

	indeg := fs.indeg
	for _, n := range g.nodes {
		for _, t := range n.Inputs {
			if t.Producer != nil {
				indeg[n.id]++
			}
		}
	}

	// netDelta estimates the live-set change from executing n.
	netDelta := func(n *Node) float64 {
		var d float64
		for _, t := range n.Outputs {
			if !t.Persistent() && !live[t.id] {
				d += bytes[t.id]
			}
		}
		for _, t := range n.Inputs {
			if !t.Persistent() && live[t.id] && remaining[t.id] == 1 {
				d -= bytes[t.id]
			}
		}
		return d
	}
	// keyFor orders the ready heap. Ties break toward insertion order (the
	// heap compares node ids after keys): chained gradient accumulations
	// only become ready in chain order, so honoring creation order lets
	// each partial be folded into the running sum as soon as it is produced.
	keyFor := func(n *Node) float64 {
		if policy == PolicyMemGreedy {
			return netDelta(n)
		}
		return float64(n.id) // FIFO: earliest inserted node.
	}

	ready := &fs.heap
	for _, n := range g.nodes {
		if indeg[n.id] == 0 {
			ready.push(n.id, keyFor(n))
		}
	}

	order := fs.order
	for ready.len() > 0 {
		n := g.nodes[ready.pop()]
		order = append(order, n)

		// Allocate outputs.
		for _, t := range n.Outputs {
			if !t.Persistent() && !live[t.id] {
				live[t.id] = true
				cur += bytes[t.id]
			}
		}
		if cur > peakTransient {
			peakTransient = cur
		}
		// Free inputs whose last consumer just ran.
		for _, t := range n.Inputs {
			remaining[t.id]--
			if t.Persistent() || !live[t.id] {
				continue
			}
			switch remaining[t.id] {
			case 0:
				live[t.id] = false
				cur -= bytes[t.id]
			case 1:
				if policy != PolicyMemGreedy {
					break
				}
				// Exactly one unexecuted consumer entry remains; freeing t
				// now counts toward that consumer's net delta. If it is not
				// ready yet, its key is computed fresh when it is pushed.
				for _, c := range t.Consumers {
					if ready.contains(c.id) {
						ready.decrease(c.id, ready.key(c.id)-bytes[t.id])
						break
					}
				}
			}
		}
		// Outputs nobody consumes (e.g. the reported loss) are freed at step
		// end; they stay in the live set until then.
		for _, out := range n.Outputs {
			for _, c := range out.Consumers {
				indeg[c.id]--
				if indeg[c.id] == 0 {
					ready.push(c.id, keyFor(c))
				}
			}
		}
	}
	fs.order = order
	if len(order) != len(g.nodes) {
		return ScheduleResult{}, fmt.Errorf("graph: cycle detected during scheduling")
	}
	return ScheduleResult{
		PeakBytes:          persistent + peakTransient,
		PersistentBytes:    persistent,
		PeakTransientBytes: peakTransient,
		Order:              order,
	}, nil
}

// nodeHeap is an indexed binary min-heap of node ids ordered by (key, id).
// The id tie-break keeps traversal deterministic and insertion-ordered.
type nodeHeap struct {
	keys []float64 // by node id
	pos  []int32   // by node id; -1 when absent
	arr  []int32   // heap order
}

// reset prepares the heap for a graph of n nodes, reusing prior storage.
func (h *nodeHeap) reset(n int) {
	if cap(h.keys) < n {
		h.keys = make([]float64, n)
		h.pos = make([]int32, n)
	}
	if cap(h.arr) < n {
		h.arr = make([]int32, 0, n)
	}
	h.keys = h.keys[:n]
	h.pos = h.pos[:n]
	h.arr = h.arr[:0]
	for i := range h.pos {
		h.pos[i] = -1
	}
}

func (h *nodeHeap) len() int             { return len(h.arr) }
func (h *nodeHeap) contains(id int) bool { return h.pos[id] >= 0 }
func (h *nodeHeap) key(id int) float64   { return h.keys[id] }

func (h *nodeHeap) less(a, b int32) bool {
	if h.keys[a] != h.keys[b] {
		return h.keys[a] < h.keys[b]
	}
	return a < b
}

func (h *nodeHeap) push(id int, key float64) {
	h.keys[id] = key
	h.pos[id] = int32(len(h.arr))
	h.arr = append(h.arr, int32(id))
	h.siftUp(len(h.arr) - 1)
}

func (h *nodeHeap) pop() int {
	top := h.arr[0]
	last := len(h.arr) - 1
	h.arr[0] = h.arr[last]
	h.pos[h.arr[0]] = 0
	h.arr = h.arr[:last]
	h.pos[top] = -1
	if last > 0 {
		h.siftDown(0)
	}
	return int(top)
}

// decrease lowers id's key; key must not exceed the current one.
func (h *nodeHeap) decrease(id int, key float64) {
	h.keys[id] = key
	h.siftUp(int(h.pos[id]))
}

func (h *nodeHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.arr[i], h.arr[parent]) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *nodeHeap) siftDown(i int) {
	n := len(h.arr)
	for {
		left, right := 2*i+1, 2*i+2
		min := i
		if left < n && h.less(h.arr[left], h.arr[min]) {
			min = left
		}
		if right < n && h.less(h.arr[right], h.arr[min]) {
			min = right
		}
		if min == i {
			return
		}
		h.swap(i, min)
		i = min
	}
}

func (h *nodeHeap) swap(i, j int) {
	h.arr[i], h.arr[j] = h.arr[j], h.arr[i]
	h.pos[h.arr[i]] = int32(i)
	h.pos[h.arr[j]] = int32(j)
}

// AllocatorSim models a framework allocator with a fixed device capacity, as
// observed in the paper's Figure 10: once the footprint exceeds the usable
// capacity, the framework swaps tensors to host memory and stops counting
// them, so the reported device footprint plateaus at the cap.
type AllocatorSim struct {
	// CapacityBytes is the device memory size.
	CapacityBytes float64
	// UsableFraction is the fraction of capacity the allocator may use
	// (TensorFlow defaults to ~0.8).
	UsableFraction float64
}

// AllocatorReport describes the simulated allocator outcome.
type AllocatorReport struct {
	// DeviceBytes is the footprint the allocator reports on-device.
	DeviceBytes float64 `json:"device_bytes"`
	// SwappedBytes spilled to host memory.
	SwappedBytes float64 `json:"swapped_bytes"`
	// Swapping reports whether any spill occurred.
	Swapping bool `json:"swapping"`
}

// Apply converts a true footprint into the allocator-visible view.
func (a AllocatorSim) Apply(footprintBytes float64) AllocatorReport {
	limit := a.CapacityBytes * a.UsableFraction
	if footprintBytes <= limit {
		return AllocatorReport{DeviceBytes: footprintBytes}
	}
	return AllocatorReport{
		DeviceBytes:  limit,
		SwappedBytes: footprintBytes - limit,
		Swapping:     true,
	}
}

// GroupFootprints estimates per-group resident bytes for layer-wise
// parallelism planning: parameters (plus optimizer state and weight
// gradients, which the paper's 12 B/param accounting keeps resident) are
// attributed to their group, and peak transient bytes are attributed to the
// group active at the peak.
func (g *Graph) GroupFootprints(env map[string]float64, policy SchedulePolicy) (map[string]float64, error) {
	res, err := g.Footprint(env, policy)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, t := range g.tensors {
		if t.Persistent() {
			v, err := t.Bytes().Eval(env)
			if err != nil {
				return nil, err
			}
			out[t.Group] += v
		}
	}
	// Attribute the transient peak proportionally to per-group transient
	// traffic, a first-order split adequate for planning.
	groupTransient := make(map[string]float64)
	var totalTransient float64
	for _, t := range g.tensors {
		if !t.Persistent() {
			v, err := t.Bytes().Eval(env)
			if err != nil {
				return nil, err
			}
			groupTransient[t.Group] += v
			totalTransient += v
		}
	}
	if totalTransient > 0 {
		for k, v := range groupTransient {
			out[k] += res.PeakTransientBytes * v / totalTransient
		}
	}
	return out, nil
}

// SortedGroupNames returns map keys in sorted order, for deterministic
// reporting.
func SortedGroupNames(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
