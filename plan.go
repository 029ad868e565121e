package catamount

import (
	"context"

	"catamount/internal/plan"
)

// PlanSpec describes an inverse capacity query: an accuracy target plus a
// search space of accelerators, worker counts, subbatches, and parallelism
// strategies. See internal/plan.Spec for field semantics; this is also the
// JSON schema of the catamountd POST /v1/plan endpoint.
type PlanSpec = plan.Spec

// PlanResult is one full search: the resolved target, every candidate
// (infeasible ones annotated), and the deterministic Pareto frontier over
// {time, devices, cost}.
type PlanResult = plan.Result

// TrainingPlan is one evaluated cluster configuration.
type TrainingPlan = plan.Plan

// PlanTarget is the learning-curve inversion of a requested accuracy.
type PlanTarget = plan.Target

// maxPlanEntries bounds the per-key planner memo, mirroring the
// case-study memo: generous for the catalog-search working set while
// long-tail custom searches evict least-recently-used entries.
const maxPlanEntries = 64

// Plan answers the inverse query: what cluster configurations reach the
// target, and which are Pareto-optimal over {time, devices, cost}? The
// search composes the session's compiled models through the sweep worker
// pool, and results are memoized by canonical search key in a sharded LRU
// — repeated queries for the same target cost one per-shard lock and a map
// lookup, and concurrent callers for one key share a single search. Plan
// is PlanOn under context.Background().
func (e *Engine) Plan(spec PlanSpec) (*PlanResult, error) {
	return e.PlanOn(context.Background(), spec)
}

// PlanOn is Plan with the caller's context, mirroring AnalyzeOn: ctx
// carries the caller's request trace into the search's stage spans. The
// memoized search runs under context.WithoutCancel(ctx), so it is traced
// but never cancelled — the result outlives any one caller, and one
// caller's cancellation must not poison the entry.
func (e *Engine) PlanOn(ctx context.Context, spec PlanSpec) (*PlanResult, error) {
	p, err := plan.New(e, spec)
	if err != nil {
		return nil, err
	}
	ent, _ := e.plans.GetOrCreate(p.Key(), func() *planEntry { return &planEntry{} })
	ent.once.Do(func() {
		ent.res, ent.err = p.Run(context.WithoutCancel(ctx))
	})
	return ent.res, ent.err
}

// PlanSearch runs an unmemoized search under the caller's context —
// cancellable, and never retained. Long-tail interactive what-ifs belong
// here; repeated queries belong on Plan.
func (e *Engine) PlanSearch(ctx context.Context, spec PlanSpec) (*PlanResult, error) {
	p, err := plan.New(e, spec)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx)
}
