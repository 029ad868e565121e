package server

import (
	"bytes"
	"net/http"
	"runtime/debug"
	"sync"

	"catamount/internal/costmodel"
	"catamount/internal/obs"
)

// This file is the Prometheus side of the serving metrics: GET /metrics
// renders (1) the serving counters, captured through the same consistent
// snapshot path the JSON view uses, (2) the per-endpoint request-duration
// histograms and response-byte counters from the server's own registry,
// and (3) the engine stage-latency histograms from obs.Default — so one
// scrape decomposes a sweep request into model build, characterize-batch,
// footprint, per-backend step-time and chunk latency.

// Family names for the per-endpoint series, shared with New's route
// registration.
const (
	reqDurationMetric = "catamount_http_request_duration_seconds"
	respBytesMetric   = "catamount_http_response_bytes_total"
)

// expositionContentType is the Prometheus text format version we emit.
const expositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// writePrometheus renders the full exposition. The snapshot counters are
// loaded into a scratch registry so every family funnels through the one
// text writer (one grammar implementation, one escaping path) instead of a
// second hand-rolled renderer.
func (s *Server) writePrometheus(w http.ResponseWriter) {
	c := s.snapshot()
	scratch := obs.NewRegistry()
	add := func(name, help string, v int64, labels ...obs.Label) {
		scratch.Counter(name, help, labels...).Add(v)
	}
	add("catamount_http_requests_total", "Requests received, all endpoints.", c.requests)
	add("catamount_cache_hits_total", "Response cache hits.", c.hits)
	add("catamount_cache_misses_total", "Response cache misses (upstream computations started).", c.misses)
	add("catamount_cache_evictions_total", "Response cache entries evicted.", c.cacheEvictions)
	add("catamount_coalesced_total", "Requests coalesced into an in-flight computation.", c.coalesced)
	add("catamount_rejected_total", "Requests shed by the concurrency limiter.", c.rejected)
	add("catamount_timeouts_total", "Requests that exceeded their deadline.", c.timeouts)
	add("catamount_sweep_streams_total", "POST /v1/sweep runs admitted.", c.sweepStreams)
	add("catamount_sweep_points_total", "Sweep grid points streamed out.", c.sweepPoints)
	add("catamount_plan_runs_total", "Planner searches computed (cache misses).", c.planRuns)
	add("catamount_plan_plans_total", "Candidate plans evaluated by those searches.", c.planPlans)
	add("catamount_costmodel_requests_total", "Requests served per step-time backend.",
		c.cmGraph, obs.Label{Name: "backend", Value: costmodel.GraphName})
	add("catamount_costmodel_requests_total", "Requests served per step-time backend.",
		c.cmPerop, obs.Label{Name: "backend", Value: costmodel.PerOpName})

	var buf bytes.Buffer
	scratch.WritePrometheus(&buf)
	s.reg.WritePrometheus(&buf)
	obs.Default.WritePrometheus(&buf)
	w.Header().Set("Content-Type", expositionContentType)
	w.Write(buf.Bytes())
}

// buildRevision reads the VCS revision stamped into the binary, once.
var buildRevision = sync.OnceValues(func() (string, bool) {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "", false
	}
	var rev string
	var modified bool
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	return rev, modified
})
