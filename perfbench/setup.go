package main

import (
	"fmt"

	cat "catamount"
	"catamount/internal/core"
	"catamount/internal/graph"
	"catamount/internal/models"
)

// allDomains is every Table 1 domain, in the program's order.
var allDomains = models.AllDomains

// rnnDomains are the four recurrent domains of the paper's RNN regime.
var rnnDomains = []models.Domain{models.WordLM, models.CharLM, models.NMT, models.Speech}

// bootEngine is the cold boot every CLI run and fresh daemon pays: a new
// Engine with each listed domain built and compiled.
func bootEngine(domains []models.Domain) (*cat.Engine, error) {
	eng := cat.NewEngine()
	for _, d := range domains {
		if _, err := eng.Analyzer(d); err != nil {
			return nil, fmt.Errorf("boot %s: %w", d, err)
		}
	}
	return eng, nil
}

// reportSetup prints and records setup_s from each boot's seconds.
func reportSetup(e *env, secs []float64, what string) {
	s := summarize(secs)
	e.printf("%s", s.line("setup_s", "s"))
	e.printf("    (%s; median of %d boots in this run)\n", what, s.n)
	e.set("setup_s", s.p50, "s")
}

// probeSetupLayers times the set-up layers of every domain through their
// public calls: models.Build, graph.Compile on a freshly built model, and
// core.NewAnalyzer (which compiles again, on its own fresh model). Each
// domain is built twice so that neither timed compile sees expression
// caches warmed by the other.
func probeSetupLayers(e *env, t *tracer) error {
	root := t.begin("setup.probe", -1)
	defer t.end(root)
	e.printf("\nset-up layers, per domain (fresh model for each compile)\n")
	e.printf("  %-8s %12s %14s %18s\n", "domain", "build_ms", "compile_ms", "new_analyzer_ms")
	for _, d := range allDomains {
		var m1, m2 *models.Model
		var err1, err2, errA error

		b1 := t.do("models.Build", root, func() { m1, err1 = models.Build(d) })
		if err1 != nil {
			return fmt.Errorf("build %s: %w", d, err1)
		}
		newA := t.do("core.NewAnalyzer", root, func() { _, errA = core.NewAnalyzer(m1) })
		if errA != nil {
			return fmt.Errorf("analyzer %s: %w", d, errA)
		}
		b2 := t.do("models.Build", root, func() { m2, err2 = models.Build(d) })
		if err2 != nil {
			return fmt.Errorf("build %s: %w", d, err2)
		}
		comp := t.do("graph.Compile", root, func() { graph.Compile(m2.Graph) })

		build := (ms(b1) + ms(b2)) / 2
		e.printf("  %-8s %12.3f %14.3f %18.3f\n", d, build, ms(comp), ms(newA))
		e.set("models.build_ms."+string(d), build, "ms")
		e.set("graph.compile_ms."+string(d), ms(comp), "ms")
		e.set("core.new_analyzer_ms."+string(d), ms(newA), "ms")
	}
	return nil
}
