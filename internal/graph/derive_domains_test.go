// Equivalence and isolation tests for the graph-scoped derivation memo,
// run over all five domain training graphs. This is an external test
// package so it can import the model builders without an import cycle.
package graph_test

import (
	"runtime"
	"strings"
	"testing"

	"catamount/internal/graph"
	"catamount/internal/models"
	"catamount/internal/symbolic"
)

// TestDerivationMemoMatchesUncached compiles each domain graph twice, once
// through the memo and once deriving every expression afresh, and requires
// identical programs: same symbol table, same unique-program counts, and
// the same canonical program for every node, tensor and total.
func TestDerivationMemoMatchesUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("builds all five domain graphs twice")
	}
	wantCost := map[models.Domain]int{
		models.WordLM: 39, models.CharLM: 44, models.NMT: 60, models.Speech: 92, models.ImageCl: 128,
	}
	for _, d := range models.AllDomains {
		t.Run(string(d), func(t *testing.T) {
			memo := models.MustBuild(d)
			plain := models.MustBuild(d)
			graph.DisableDerivationMemo(plain.Graph)
			got, want := graph.Compile(memo.Graph), graph.Compile(plain.Graph)

			if got.NumCostPrograms() != wantCost[d] || want.NumCostPrograms() != wantCost[d] {
				t.Errorf("unique cost programs: memo %d, uncached %d, want %d",
					got.NumCostPrograms(), want.NumCostPrograms(), wantCost[d])
			}
			if got.NumTensorPrograms() != want.NumTensorPrograms() {
				t.Errorf("unique tensor programs: memo %d, uncached %d",
					got.NumTensorPrograms(), want.NumTensorPrograms())
			}
			if g, w := strings.Join(got.Syms.Names(), ","), strings.Join(want.Syms.Names(), ","); g != w {
				t.Fatalf("symbols: memo %s, uncached %s", g, w)
			}
			same := func(what string, i int, g, w *symbolic.Program) {
				t.Helper()
				if g.String() != w.String() || g.Expr().String() != w.Expr().String() {
					t.Fatalf("%s %d: memo %s (%s), uncached %s (%s)",
						what, i, g.Expr(), g, w.Expr(), w)
				}
			}
			for i := range got.NodeFLOPs {
				same("node flops", i, got.NodeFLOPs[i], want.NodeFLOPs[i])
				same("node bytes", i, got.NodeBytes[i], want.NodeBytes[i])
			}
			for i := range got.TensorBytes {
				same("tensor bytes", i, got.TensorBytes[i], want.TensorBytes[i])
			}
			same("params", 0, got.ParamCount, want.ParamCount)
			same("total flops", 0, got.TotalFLOPs, want.TotalFLOPs)
			same("total bytes", 0, got.TotalBytes, want.TotalBytes)
			same("io", 0, got.IO, want.IO)
		})
	}
}

// TestSecondGraphDerivesAsMuchAsTheFirst builds and compiles each domain
// twice in one process and requires the second graph to do exactly the
// derivation work of the first, and as many heap allocations to within
// 1%: no memo outlives the graph it was derived for.
func TestSecondGraphDerivesAsMuchAsTheFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("builds all five domain graphs twice")
	}
	boot := func(d models.Domain) (derived int, mallocs uint64, m *models.Model) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m = models.MustBuild(d)
		graph.Compile(m.Graph)
		runtime.ReadMemStats(&after)
		return graph.Derivations(m.Graph), after.Mallocs - before.Mallocs, m
	}
	for _, d := range models.AllDomains {
		d1, a1, m := boot(d)
		d2, a2, _ := boot(d)
		if d1 != d2 {
			t.Errorf("%s: second graph derived %d expressions, first %d", d, d2, d1)
		}
		if lo, hi := float64(a1)*0.99, float64(a1)*1.01; float64(a2) < lo || float64(a2) > hi {
			t.Errorf("%s: second boot made %d allocations, first %d", d, a2, a1)
		}
		// The memo must actually collapse the repeats: fewer derivations
		// than the graph has nodes, each of which derives several.
		if n := len(m.Graph.Nodes()); d1 == 0 || d1 >= n {
			t.Errorf("%s: %d derivations for %d nodes", d, d1, n)
		}
		t.Logf("%s: %d derivations, %d allocations for %d nodes / %d tensors",
			d, d1, a1, len(m.Graph.Nodes()), len(m.Graph.Tensors()))
	}
}
