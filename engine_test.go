package catamount

import (
	"context"
	"testing"

	"catamount/internal/obs"
)

// TestAnalyzeOnTracesColdBuild pins that a request paying for a domain's
// cold build sees it in its own trace: model_build under the request, with
// the build, warm_costs and compile layers as its children. A canceled
// request context must not cancel the shared build, and a warm request
// records no build spans at all.
func TestAnalyzeOnTracesColdBuild(t *testing.T) {
	eng := NewEngine()
	tr := obs.NewTrace("cold-build", "test")
	ctx, cancel := context.WithCancel(tr.Context(context.Background()))
	cancel()
	if _, _, err := eng.AnalyzeOn(ctx, ImageCl, 1e7, 32, TargetAccelerator(), nil); err != nil {
		t.Fatal(err)
	}
	tr.Finish(false)

	spans := tr.Spans()
	build := int32(-1)
	for i, s := range spans {
		if s.Stage == "model_build" {
			if s.Parent != 0 {
				t.Errorf("model_build parent = %d, want the trace root", s.Parent)
			}
			build = int32(i + 1)
		}
	}
	if build < 0 {
		t.Fatalf("cold AnalyzeOn trace has no model_build span: %+v", spans)
	}
	children := map[string]bool{}
	for _, s := range spans {
		if s.Parent == build {
			children[s.Stage] = true
		}
	}
	for _, stage := range []string{"build", "warm_costs", "compile"} {
		if !children[stage] {
			t.Errorf("model_build has no %q child; children %v", stage, children)
		}
	}

	warm := obs.NewTrace("warm", "test")
	if _, _, err := eng.AnalyzeOn(warm.Context(context.Background()), ImageCl, 1e7, 32, TargetAccelerator(), nil); err != nil {
		t.Fatal(err)
	}
	warm.Finish(false)
	for _, s := range warm.Spans() {
		if s.Stage == "model_build" {
			t.Errorf("warm AnalyzeOn recorded a model_build span")
		}
	}
}
