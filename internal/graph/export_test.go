package graph

// DisableDerivationMemo makes g derive every shape and cost expression
// afresh: the oracle the memoized derivation is checked against.
func DisableDerivationMemo(g *Graph) { g.derive.uncached = true }

// Derivations reports how many expressions g has derived rather than
// served from its memo.
func Derivations(g *Graph) int {
	g.derive.mu.Lock()
	defer g.derive.mu.Unlock()
	return g.derive.derived
}
