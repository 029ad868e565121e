package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	cat "catamount"
	"catamount/internal/obs"
)

// collectStages flattens a span tree into stage-name counts.
func collectStages(n *obs.SpanNode, into map[string]int) {
	if n == nil {
		return
	}
	into[n.Stage]++
	for _, c := range n.Children {
		collectStages(c, into)
	}
}

// TestTracesEndToEnd is the acceptance path: drive a real sweep request,
// then read its trace back as a tree whose root is the request span and
// whose leaves include characterize_batch and a steptime_* span, and as a
// schema-valid Perfetto export.
func TestTracesEndToEnd(t *testing.T) {
	obs.Flight.Reset()
	s := newTestServer(Config{})

	const rid = "trace-e2e-1"
	rec := postSweep(t, s, `{"domains":["wordlm"],"params":[1e8,2e8],"subbatches":[32]}`,
		map[string]string{"X-Request-Id": rid})
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep status = %d: %s", rec.Code, rec.Body.String())
	}

	// List: the request's trace is retained under its route pattern, and
	// the stage exemplars now link histograms back to trace IDs.
	lrec, _ := get(t, s, "/v1/traces?route="+strings.ReplaceAll("POST /v1/sweep", " ", "%20"))
	if lrec.Code != http.StatusOK {
		t.Fatalf("traces list status = %d", lrec.Code)
	}
	var list struct {
		Traces []obs.TraceSummary  `json:"traces"`
		Count  int                 `json:"count"`
		Slow   []obs.StageExemplar `json:"slowest_by_stage"`
	}
	if err := json.Unmarshal(lrec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != len(list.Traces) || list.Count == 0 {
		t.Fatalf("list count = %d with %d traces", list.Count, len(list.Traces))
	}
	found := false
	for _, tr := range list.Traces {
		if tr.ID == rid {
			found = true
			if tr.Route != "POST /v1/sweep" || tr.Spans < 3 || tr.Error {
				t.Fatalf("trace summary = %+v", tr)
			}
		}
	}
	if !found {
		t.Fatalf("trace %q not in list: %+v", rid, list.Traces)
	}
	stages := map[string]bool{}
	for _, ex := range list.Slow {
		if ex.TraceID == "" || ex.Seconds <= 0 {
			t.Fatalf("degenerate exemplar %+v", ex)
		}
		stages[ex.Stage] = true
	}
	if !stages["characterize_batch"] || !stages["sweep_chunk"] {
		t.Fatalf("slowest_by_stage missing sweep stages: %+v", list.Slow)
	}

	// Tree: root is the request span; under it the sweep chunk(s), with
	// characterization and step-time pricing as leaves.
	trec, _ := get(t, s, "/v1/traces/"+rid)
	if trec.Code != http.StatusOK {
		t.Fatalf("trace get status = %d: %s", trec.Code, trec.Body.String())
	}
	var ex obs.TraceExport
	if err := json.Unmarshal(trec.Body.Bytes(), &ex); err != nil {
		t.Fatal(err)
	}
	if ex.Root == nil || ex.Root.Stage != "request" {
		t.Fatalf("trace root = %+v, want request", ex.Root)
	}
	counts := map[string]int{}
	collectStages(ex.Root, counts)
	if counts["sweep_chunk"] == 0 || counts["characterize_batch"] == 0 || counts["footprint"] == 0 {
		t.Fatalf("tree missing sweep stages: %v", counts)
	}
	steptime := false
	for stage := range counts {
		if strings.HasPrefix(stage, "steptime_") {
			steptime = true
		}
	}
	if !steptime {
		t.Fatalf("tree has no steptime_* span: %v", counts)
	}
	// Chunks nest under the request, characterizations under chunks.
	if len(ex.Root.Children) == 0 || ex.Root.Children[0].Stage != "sweep_chunk" {
		t.Fatalf("request's first child = %+v, want sweep_chunk", ex.Root.Children)
	}

	// Perfetto view, via query param and via Accept.
	prec, _ := get(t, s, "/v1/traces/"+rid+"?format=perfetto")
	if prec.Code != http.StatusOK {
		t.Fatalf("perfetto status = %d", prec.Code)
	}
	if err := obs.ValidateTraceEvents(prec.Body.Bytes()); err != nil {
		t.Fatalf("perfetto export fails schema: %v", err)
	}
	areq := httptest.NewRequest(http.MethodGet, "/v1/traces/"+rid, nil)
	areq.Header.Set("Accept", "application/vnd.chrome.trace-event+json")
	arec := httptest.NewRecorder()
	s.ServeHTTP(arec, areq)
	if err := obs.ValidateTraceEvents(arec.Body.Bytes()); err != nil {
		t.Fatalf("Accept-negotiated export fails schema: %v", err)
	}
}

func TestTracesErrorsAndFilters(t *testing.T) {
	obs.Flight.Reset()
	s := newTestServer(Config{})

	rec, body := get(t, s, "/v1/traces/nope")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("missing trace status = %d", rec.Code)
	}
	if env, ok := body["error"].(map[string]any); !ok || env["code"] != "not_found" {
		t.Fatalf("404 not in the error envelope: %s", rec.Body.String())
	}

	for _, path := range []string{
		"/v1/traces?min_ms=-1",
		"/v1/traces?min_ms=abc",
		"/v1/traces?limit=-2",
		"/v1/traces?limit=many",
	} {
		rec, body := get(t, s, path)
		if rec.Code != http.StatusBadRequest || errMessage(body) == "" {
			t.Fatalf("%s status = %d, want enveloped 400", path, rec.Code)
		}
	}

	// A failing request (bad domain) must be retained as an errored trace.
	rec, _ = get(t, s, "/v1/analyze?domain=nope&params=1e8")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad analyze status = %d", rec.Code)
	}
	errRID := rec.Header().Get("X-Request-Id")
	trec, _ := get(t, s, "/v1/traces/"+errRID)
	if trec.Code != http.StatusOK {
		t.Fatalf("errored trace not retained: %d", trec.Code)
	}
	var ex obs.TraceExport
	if err := json.Unmarshal(trec.Body.Bytes(), &ex); err != nil {
		t.Fatal(err)
	}
	if !ex.Error {
		t.Fatalf("trace of a 400 response not flagged errored: %+v", ex.TraceSummary)
	}

	// Unknown format on a retained trace.
	frec, fbody := get(t, s, "/v1/traces/"+errRID+"?format=bogus")
	if frec.Code != http.StatusBadRequest || errMessage(fbody) == "" {
		t.Fatalf("bogus format status = %d", frec.Code)
	}

	// Trace reads are exempt from tracing: none of the /v1/traces requests
	// above may themselves appear in the recorder.
	lrec, _ := get(t, s, "/v1/traces")
	var list tracesResponse
	if err := json.Unmarshal(lrec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	for _, tr := range list.Traces {
		if strings.HasPrefix(tr.Route, "GET /v1/traces") {
			t.Fatalf("trace read recorded its own trace: %+v", tr)
		}
	}
}

// TestTracesConsistentUnderSweepLoad is the -race soak: trace reads (list,
// tree, Perfetto) hammer the flight recorder while sweep requests stream
// and record, crossing the claim/retain/read paths under the detector.
func TestTracesConsistentUnderSweepLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-read hammer is a -race soak; skipped in short mode")
	}
	obs.Flight.Reset()
	s := newTestServer(Config{})
	spec := `{"domains":["wordlm"],"params":[1e8,2e8,4e8],"subbatches":[32,64]}`

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				postSweep(t, s, spec,
					map[string]string{"X-Request-Id": fmt.Sprintf("soak-%d-%d", w, i)})
			}
		}(w)
	}
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traces", nil))
				var list tracesResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
					errs <- err
					return
				}
				for _, tr := range list.Traces {
					if tr.ID == "" {
						errs <- fmt.Errorf("retained trace with empty ID: %+v", tr)
						return
					}
				}
				if len(list.Traces) == 0 {
					continue
				}
				id := list.Traces[len(list.Traces)-1].ID
				tree := httptest.NewRecorder()
				s.ServeHTTP(tree, httptest.NewRequest(http.MethodGet, "/v1/traces/"+id, nil))
				perf := httptest.NewRecorder()
				s.ServeHTTP(perf, httptest.NewRequest(http.MethodGet, "/v1/traces/"+id+"?format=perfetto", nil))
				// A trace can rotate out between list and get; only validate
				// the bodies of hits.
				if perf.Code == http.StatusOK {
					if err := obs.ValidateTraceEvents(perf.Body.Bytes()); err != nil {
						errs <- fmt.Errorf("trace %s: %w", id, err)
						return
					}
				}
				if tree.Code != http.StatusOK && tree.Code != http.StatusNotFound {
					errs <- fmt.Errorf("trace %s tree status %d", id, tree.Code)
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

// TestPlanRequestTraceHasPlanRun drives a plan request on an engine whose
// plan memo is cold, then reads its trace back: the planner's search must
// run under the request's trace, with plan_run a child of the request span
// and the search's sweep stages beneath it.
func TestPlanRequestTraceHasPlanRun(t *testing.T) {
	obs.Flight.Reset()
	s := newTestServer(Config{Engine: cat.NewEngine()})

	const rid = "trace-plan-1"
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(planBody(t)))
	req.Header.Set("X-Request-Id", rid)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("plan status = %d: %s", rec.Code, rec.Body.String())
	}

	trec, _ := get(t, s, "/v1/traces/"+rid)
	if trec.Code != http.StatusOK {
		t.Fatalf("trace get status = %d: %s", trec.Code, trec.Body.String())
	}
	var ex obs.TraceExport
	if err := json.Unmarshal(trec.Body.Bytes(), &ex); err != nil {
		t.Fatal(err)
	}
	if ex.Root == nil || ex.Root.Stage != "request" {
		t.Fatalf("trace root = %+v, want request", ex.Root)
	}
	var planRun *obs.SpanNode
	for _, c := range ex.Root.Children {
		if c.Stage == "plan_run" {
			planRun = c
		}
	}
	if planRun == nil {
		t.Fatalf("request span has no plan_run child: %+v", ex.Root.Children)
	}
	counts := map[string]int{}
	collectStages(planRun, counts)
	if counts["characterize_batch"] == 0 || counts["plan_evaluate"] == 0 {
		t.Fatalf("plan_run subtree missing search stages: %v", counts)
	}
}
