package server

import (
	"catamount/internal/api"
	"fmt"
	"net/http"

	"catamount/internal/plan"
)

// This file is the capacity-planner endpoint: POST /v1/plan takes a
// plan.Spec JSON body (the inverse query: accuracy target + search space)
// and returns the full search result — resolved target, every candidate
// with infeasibility annotations, and the Pareto frontier. Unlike
// /v1/sweep the response is bounded and deterministic, so it rides the
// same cached single-flight path as the point endpoints: K concurrent
// identical searches cost one computation, and repeats are cache hits.
// The plan_runs / plan_plans counters meter it the way sweep_streams /
// sweep_points meter the sweep endpoint.

// handlePlan validates the spec (every validation failure is a 400 before
// any computation), bounds the search like handleSweep bounds grids, then
// dispatches through the cached single-flight group. The planner search
// itself is additionally memoized inside the Engine, so even a cache-
// evicted key recomputes only the JSON, not the search.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var spec plan.Spec
	if err := api.DecodeJSON(w, r.Body, 1<<20, &spec); err != nil {
		apiError(w, r, http.StatusBadRequest, "invalid plan spec: "+err.Error())
		return
	}
	// The "costmodel" query parameter wins over the spec field — the one
	// precedence rule, owned by internal/api.
	api.OverrideCostModel(&spec.CostModel, r.URL.Query().Get("costmodel"))
	p, err := plan.New(s.eng, spec)
	if err != nil {
		apiError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if n := p.Candidates(); n > s.maxSweepPoints {
		// Same guard, same reasoning as /v1/sweep: the limit protects the
		// serving process; huge searches belong on cmd/plan.
		apiError(w, r, http.StatusBadRequest, fmt.Sprintf(
			"plan search has %d candidates, server limit is %d (shrink the grid or use cmd/plan)",
			n, s.maxSweepPoints))
		return
	}
	// Metered only once the search is admitted, mirroring handleSweep.
	s.countCostModel(p.CostModel())
	key := "plan|" + p.Key()
	s.respondCached(w, r, key, func() (any, error) {
		res, err := s.eng.PlanOn(r.Context(), spec)
		if err != nil {
			return nil, err
		}
		s.planRuns.Add(1)
		s.planPlans.Add(int64(res.Candidates))
		return res, nil
	})
}
