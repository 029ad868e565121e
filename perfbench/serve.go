package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"time"

	cat "catamount"
	"catamount/internal/core"
	"catamount/internal/costmodel"
	"catamount/internal/hw"
	"catamount/internal/models"
	"catamount/internal/obs"
	"catamount/internal/server"
)

// serveWorkload is a closed loop of clients calling Server.ServeHTTP in
// process, over an Engine that set-up has already warmed. Each client
// sends its next request only when the previous reply is in, as a
// notebook or dashboard does.
type serveWorkload struct {
	hotKeys int // analyze keys cached during set-up
	// Each block of requests holds exactly this many of each class, in a
	// seeded order, so every seed sends the same mix.
	blockHits, blockMisses, blockPlans int
	checkEvery                         int // every n-th miss reply is checked against AnalyzeOn
}

// mixedServe's proportions are an assumption, not measured traffic: the
// repository holds no record of real callers. They are chosen so that
// neither gated percentile sits on a boundary between request classes.
// Sorted by latency, hits fill the lowest 60% (so op_p50_ms is a hit well
// inside that class), then the fast misses (image, wordlm, nmt; 60–78%),
// then the slow cluster of charlm misses, plans and speech misses, whose
// latencies overlap (78–100%); op_p90_ms falls in the middle of it.
var mixedServe = serveWorkload{
	hotKeys:   32,
	blockHits: 12, blockMisses: 6, blockPlans: 2,
	checkEvery: 10,
}

func runServeMixed(e *env) error { return mixedServe.run(e) }

type reqClass int

const (
	classHit reqClass = iota
	classMiss
	classPlan
	numClasses
)

var classNames = [numClasses]string{"hit", "miss", "plan"}

// serveReq is one generated request and the inputs behind it.
type serveReq struct {
	seq    int
	class  reqClass
	target string // request URI
	body   []byte // POST body (plans)
	hot    int    // hot-key index (hits)

	// analyze inputs (hits and misses)
	domain        models.Domain
	params, batch float64
	accel         string
	// plan input
	plan cat.PlanSpec
}

func (r serveReq) httpRequest(ctx context.Context) (*http.Request, error) {
	if r.body != nil {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.target, bytes.NewReader(r.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, err
	}
	return http.NewRequestWithContext(ctx, http.MethodGet, r.target, nil)
}

// reqGen produces the seeded request sequence. The n-th request depends
// only on the seed and n, whichever client sends it.
type reqGen struct {
	w   serveWorkload
	mu  sync.Mutex
	rng *rand.Rand
	hot []serveReq
	// seen holds every analyze key handed out, so a miss is never a
	// repeat (nor a hot key).
	seen     map[string]bool
	block    []reqClass
	missDoms []models.Domain
	n        int
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func newReqGen(w serveWorkload, seed int64) *reqGen {
	g := &reqGen{
		w:    w,
		rng:  rand.New(rand.NewPCG(uint64(seed), 0x5e7e5e7e)),
		seen: map[string]bool{},
	}
	for i := 0; i < w.hotKeys; i++ {
		r := g.analyze(allDomains[i%len(allDomains)])
		r.class, r.hot = classHit, i
		g.hot = append(g.hot, r)
	}
	return g
}

// analyze draws a never-seen analyze key on domain d.
func (g *reqGen) analyze(d models.Domain) serveReq {
	accs := hw.Names()
	for {
		r := serveReq{
			domain: d,
			params: logUniform(g.rng, paramMin, paramMax),
			batch:  sweepSubbatches[g.rng.IntN(len(sweepSubbatches))],
			accel:  accs[g.rng.IntN(len(accs))],
		}
		q := url.Values{}
		q.Set("domain", string(d))
		q.Set("params", fmtFloat(r.params))
		q.Set("batch", fmtFloat(r.batch))
		q.Set("accel", r.accel)
		r.target = "/v1/analyze?" + q.Encode()
		if !g.seen[r.target] {
			g.seen[r.target] = true
			return r
		}
	}
}

// next returns the next request of the sequence.
func (g *reqGen) next() serveReq {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.block) == 0 {
		for i := 0; i < g.w.blockHits; i++ {
			g.block = append(g.block, classHit)
		}
		for i := 0; i < g.w.blockMisses; i++ {
			g.block = append(g.block, classMiss)
		}
		for i := 0; i < g.w.blockPlans; i++ {
			g.block = append(g.block, classPlan)
		}
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	class := g.block[0]
	g.block = g.block[1:]

	var r serveReq
	switch class {
	case classHit:
		r = g.hot[g.rng.IntN(len(g.hot))]
	case classMiss:
		// Misses visit every domain once per cycle, in a seeded order.
		if len(g.missDoms) == 0 {
			g.missDoms = append(g.missDoms, allDomains...)
			g.rng.Shuffle(len(g.missDoms), func(i, j int) {
				g.missDoms[i], g.missDoms[j] = g.missDoms[j], g.missDoms[i]
			})
		}
		r = g.analyze(g.missDoms[0])
		g.missDoms = g.missDoms[1:]
		r.class = classMiss
	case classPlan:
		// A never-seen budget makes every plan a fresh search.
		r.class = classPlan
		r.plan = cat.PlanSpec{Domain: string(models.WordLM), BudgetHours: logUniform(g.rng, 10, 1e6)}
		r.target = "/v1/plan"
		r.body, _ = json.Marshal(r.plan) // a struct of plain fields always marshals
	}
	r.seq = g.n
	g.n++
	return r
}

// respRecorder is a reusable in-process http.ResponseWriter.
type respRecorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func newRespRecorder() *respRecorder { return &respRecorder{hdr: http.Header{}} }

func (r *respRecorder) Header() http.Header { return r.hdr }

func (r *respRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *respRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(b)
}

func (r *respRecorder) reset() {
	clear(r.hdr)
	r.status = 0
	r.body.Reset()
}

// serveState is one booted server and the first body of every hot key.
type serveState struct {
	eng       *cat.Engine
	srv       *server.Server
	hotBodies [][]byte
}

// boot brings up a warmed Engine and a server over it, and caches the hot
// set by requesting each hot key once.
func (w serveWorkload) boot(gen *reqGen) (*serveState, error) {
	return w.bootDomains(gen, allDomains)
}

// bootDomains is boot with the Engine warmed on the given domains only.
func (w serveWorkload) bootDomains(gen *reqGen, domains []models.Domain) (*serveState, error) {
	eng, err := bootEngine(domains)
	if err != nil {
		return nil, err
	}
	st := &serveState{eng: eng, srv: server.New(server.Config{Engine: eng})}
	rec := newRespRecorder()
	for _, r := range gen.hot {
		req, err := r.httpRequest(context.Background())
		if err != nil {
			return nil, err
		}
		rec.reset()
		st.srv.ServeHTTP(rec, req)
		if rec.status != http.StatusOK {
			return nil, fmt.Errorf("caching hot key %s: status %d: %s", r.target, rec.status, rec.body.Bytes())
		}
		st.hotBodies = append(st.hotBodies, bytes.Clone(rec.body.Bytes()))
	}
	return st, nil
}

// judge checks one reply: it must be 2xx, and a hit must be byte-identical
// to the first response for its key.
func (st *serveState) judge(r serveReq, status int, body []byte) error {
	if status < 200 || status > 299 {
		return fmt.Errorf("request %d (%s %s): status %d: %.200s", r.seq, classNames[r.class], r.target, status, body)
	}
	if r.class == classHit && !bytes.Equal(body, st.hotBodies[r.hot]) {
		return fmt.Errorf("request %d: hit body for %s differs from its first response", r.seq, r.target)
	}
	return nil
}

// served is one completed request. err is set when its reply failed a
// check, so each request counts as failed at most once.
type served struct {
	req serveReq
	dur time.Duration
	err error
	// Kept for the post-run checks: a plan reply's digest (plan replies
	// are large), a sampled miss reply's body.
	planSum [sha256.Size]byte
	body    []byte
}

// clientLog is what one client saw; each client owns its own. failures
// are requests that could not be built, so never reached the server.
type clientLog struct {
	done     []served
	failures []error
}

// runClients drives the closed loop with n clients until the deadline and
// returns each client's log and the loop's wall time.
func (w serveWorkload) runClients(st *serveState, gen *reqGen, n int, seconds float64) ([]*clientLog, time.Duration) {
	logs := make([]*clientLog, n)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	start := time.Now()
	var wg sync.WaitGroup
	for c := range logs {
		logs[c] = &clientLog{}
		wg.Add(1)
		go func(log *clientLog) {
			defer wg.Done()
			rec := newRespRecorder()
			for time.Now().Before(deadline) {
				r := gen.next()
				req, err := r.httpRequest(context.Background())
				if err != nil {
					log.failures = append(log.failures, err)
					continue
				}
				rec.reset()
				t0 := time.Now()
				st.srv.ServeHTTP(rec, req)
				d := time.Since(t0)
				body := rec.body.Bytes()
				s := served{req: r, dur: d, err: st.judge(r, rec.status, body)}
				switch {
				case r.class == classPlan:
					s.planSum = sha256.Sum256(bytes.TrimSuffix(body, []byte("\n")))
				case r.class == classMiss && r.seq%w.checkEvery == 0:
					s.body = bytes.Clone(body)
				}
				log.done = append(log.done, s)
			}
		}(logs[c])
	}
	wg.Wait()
	return logs, time.Since(start)
}

// analyzeReply is the part of a /v1/analyze body the checks compare.
type analyzeReply struct {
	Requirements core.Requirements `json:"requirements"`
	StepSeconds  float64           `json:"step_seconds"`
	Utilization  float64           `json:"utilization"`
	ComputeBound bool              `json:"compute_bound"`
}

// checkMiss compares a miss reply with a direct Engine.AnalyzeOn.
func checkMiss(eng *cat.Engine, r serveReq, body []byte) error {
	var got analyzeReply
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("request %d: decode analyze reply: %w", r.seq, err)
	}
	acc, err := hw.Lookup(r.accel)
	if err != nil {
		return err
	}
	req, est, err := eng.AnalyzeOn(context.Background(), r.domain, r.params, r.batch, acc, nil)
	if err != nil {
		return fmt.Errorf("request %d: AnalyzeOn: %w", r.seq, err)
	}
	if field, ok := sameBits(got.Requirements, req); !ok {
		return fmt.Errorf("request %d: reply %s differs from AnalyzeOn", r.seq, field)
	}
	if math.Float64bits(got.StepSeconds) != math.Float64bits(est.StepSeconds) ||
		math.Float64bits(got.Utilization) != math.Float64bits(est.Utilization) ||
		got.ComputeBound != est.ComputeBound {
		return fmt.Errorf("request %d: reply roofline differs from AnalyzeOn", r.seq)
	}
	return nil
}

// checkPlan compares a plan reply, by digest, with Engine.PlanSearch on
// the same body.
func checkPlan(eng *cat.Engine, r serveReq, sum [sha256.Size]byte) error {
	res, err := eng.PlanSearch(context.Background(), r.plan)
	if err != nil {
		return fmt.Errorf("request %d: PlanSearch: %w", r.seq, err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if sha256.Sum256(want) != sum {
		return fmt.Errorf("request %d: plan reply differs from PlanSearch", r.seq)
	}
	return nil
}

// checkLogs counts every request the clients attempted and runs the
// post-run checks over what they kept, on as many goroutines as there were
// clients. A request fails at most once: when it could not be built, when
// its reply failed judge, or else when its kept reply differs from the
// Engine's own answer.
func checkLogs(e *env, eng *cat.Engine, logs []*clientLog, workers int) (plans, misses int) {
	var kept []served
	for _, l := range logs {
		e.attempted += int64(len(l.done) + len(l.failures))
		for _, err := range l.failures {
			e.fail(1, "%v", err)
		}
		for _, s := range l.done {
			switch {
			case s.err != nil:
				e.fail(1, "%v", s.err)
			case s.req.class == classPlan || s.body != nil:
				kept = append(kept, s)
			}
		}
	}
	errs := make([]error, len(kept))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(kept); i += workers {
				if kept[i].req.class == classPlan {
					errs[i] = checkPlan(eng, kept[i].req, kept[i].planSum)
				} else {
					errs[i] = checkMiss(eng, kept[i].req, kept[i].body)
				}
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if kept[i].req.class == classPlan {
			plans++
		} else {
			misses++
		}
		if err != nil {
			e.fail(1, "%v", err)
		}
	}
	return plans, misses
}

func (w serveWorkload) run(e *env) error {
	clients := runtime.NumCPU()
	var tr *tracer
	if e.trace {
		tr = newTracer(fmt.Sprintf("%s-%d-%d", e.workload, e.seed, time.Now().UnixNano()))
		if err := probeSetupLayers(e, tr); err != nil {
			return err
		}
	}

	e.printf("\nset-up\n")
	gen := newReqGen(w, e.seed)
	var st *serveState
	var err error
	if e.trace {
		st, err = w.boot(gen)
	} else {
		var secs []float64
		secs, err = timedSetups(e, func() error {
			if st != nil {
				st.srv.Close()
			}
			var err error
			st, err = w.boot(gen)
			return err
		})
		if err == nil {
			reportSetup(e, secs, fmt.Sprintf("NewEngine + build/compile of %d domains + server.New + %d hot keys cached",
				len(allDomains), w.hotKeys))
		}
	}
	if err != nil {
		return err
	}
	defer st.srv.Close()

	if e.trace {
		// The traced run goes first and the untraced loop continues the same
		// sequence, so every miss and plan key is still never-seen.
		e.printf("\ntraced run: the first requests of the sequence, one client\n")
		if err := w.traced(e, tr, st, gen); err != nil {
			return err
		}
	}

	e.printf("\nclosed loop, untraced, %d clients\n", clients)
	stagesBefore := readStages()
	metricsBefore := st.srv.Metrics()
	memBefore := readMem()
	logs, wall := w.runClients(st, gen, clients, e.seconds)

	mem := memSince(memBefore)
	metricsAfter := st.srv.Metrics()

	var all []float64
	var byClass [numClasses][]float64
	missByDomain := map[models.Domain][]float64{}
	for _, l := range logs {
		for _, s := range l.done {
			all = append(all, ms(s.dur))
			byClass[s.req.class] = append(byClass[s.req.class], ms(s.dur))
			if s.req.class == classMiss {
				missByDomain[s.req.domain] = append(missByDomain[s.req.domain], ms(s.dur))
			}
		}
	}
	uniqueMiss := len(byClass[classMiss])
	rps := float64(len(all)) / wall.Seconds()
	s := summarize(all)
	e.printf("%s", scalarLine("ops_per_s", "1/s", rps,
		fmt.Sprintf("req_per_s: %d requests in %.2f s, %d closed-loop clients", len(all), wall.Seconds(), clients)))
	e.printf("%s", s.line("op_ms", "ms"))
	e.printf("    (one op = one request of any class; op_p50_ms %.6g, op_p90_ms %.6g)\n", s.p50, s.p90)
	hit, miss, plan := summarize(byClass[classHit]), summarize(byClass[classMiss]), summarize(byClass[classPlan])
	e.printf("%s", scaled(hit, 1e3).line("hit_us", "us"))
	e.printf("%s", miss.line("miss_ms", "ms"))
	for _, d := range allDomains {
		e.printf("%s", summarize(missByDomain[d]).line("miss_ms."+string(d), "ms"))
	}
	e.printf("%s", plan.line("plan_ms", "ms"))
	reportHeap(e)
	recordMem(e, mem, int64(len(all)), "request")
	e.set("ops_per_s", rps, "1/s")
	e.set("op_p50_ms", s.p50, "ms")
	e.set("op_p90_ms", s.p90, "ms")

	d := func(a, b int64) int64 { return a - b }
	hits, misses := d(metricsAfter.CacheHits, metricsBefore.CacheHits), d(metricsAfter.CacheMisses, metricsBefore.CacheMisses)
	e.printf("\nserver counters over the timed phase (Server.Metrics deltas)\n")
	e.printf("  server.hit_ratio %.4f (%d hits, %d misses); server.evictions %d; server.coalesced %d; server.rejected %d; server.timeouts %d\n",
		float64(hits)/math.Max(1, float64(hits+misses)), hits, misses,
		d(metricsAfter.CacheEvictions, metricsBefore.CacheEvictions),
		d(metricsAfter.Coalesced, metricsBefore.Coalesced),
		d(metricsAfter.Rejected, metricsBefore.Rejected),
		d(metricsAfter.Timeouts, metricsBefore.Timeouts))
	e.printf("  %d unique miss keys against a %d-entry response cache\n", uniqueMiss, metricsAfter.CacheLimit)
	if !e.trace {
		printStages(e, "the timed phase", stagesBefore)
	}

	plans, checked := checkLogs(e, st.eng, logs, clients)
	e.printf("  checks: %d hit bodies byte-compared, %d plan replies against PlanSearch, %d sampled miss replies against AnalyzeOn\n",
		len(byClass[classHit]), plans, checked)

	if e.trace {
		return saveTrace(e, tr)
	}
	return nil
}

// scaled multiplies every statistic of a summary, for unit changes.
func scaled(s summary, k float64) summary {
	s.p25, s.p50, s.p75, s.p90, s.p99 = s.p25*k, s.p50*k, s.p75*k, s.p90*k, s.p99*k
	return s
}

// traced replays the start of the request sequence on one goroutine. Each
// request goes through Server.ServeHTTP with its own X-Request-Id, and the
// trace the server records for it (request, characterize, footprint,
// plan_run, ...) is read back from obs.Flight and grafted under the
// ServeHTTP span. A miss is then replayed through Engine.AnalyzeOn, also
// under a program trace, and through the calls the program does not
// instrument: Analyzer.SizeForParams and the cost model's StepTime. A plan
// is replayed through Engine.PlanSearch.
func (w serveWorkload) traced(e *env, tr *tracer, st *serveState, gen *reqGen) error {
	cm := costmodel.Default()
	budget := time.Duration(e.seconds * 0.3 * float64(time.Second))
	stagesBefore := readStages()
	rec := newRespRecorder()
	var overhead []float64
	var aoLat, planLat []float64
	var serveLat [numClasses][]float64
	var wall time.Duration
	nMiss, dropped, lost := 0, 0, 0
	for n := 0; n < 20 || wall < budget; n++ {
		r := gen.next()
		req, err := r.httpRequest(context.Background())
		if err != nil {
			return err
		}
		rid := fmt.Sprintf("%s-%d", tr.runID, r.seq)
		req.Header.Set("X-Request-Id", rid)
		root := tr.begin("serve.request/"+classNames[r.class], -1)
		rec.reset()
		sid := tr.begin("server.ServeHTTP", root)
		st.srv.ServeHTTP(rec, req)
		tr.end(sid)
		dServe := tr.spans[sid].end - tr.spans[sid].start
		if pt, ok := obs.Flight.Get(rid); ok {
			dropped += tr.graft(pt, sid)
		} else {
			lost++
		}
		serveLat[r.class] = append(serveLat[r.class], ms(dServe))
		e.attempted++
		if err := st.judge(r, rec.status, rec.body.Bytes()); err != nil {
			e.fail(1, "%v", err)
		}
		switch r.class {
		case classMiss:
			nMiss++
			if err := replayMiss(e, tr, st.eng, cm, root, r, dServe, &aoLat, &overhead, &dropped); err != nil {
				return err
			}
		case classPlan:
			var perr error
			d, dr := tr.traced("plan.PlanSearch", root, func(ctx context.Context) { _, perr = st.eng.PlanSearch(ctx, r.plan) })
			dropped += dr
			e.attempted++
			if perr != nil {
				e.fail(1, "PlanSearch: %v", perr)
			}
			planLat = append(planLat, ms(d))
		}
		tr.end(root)
		wall += tr.spans[root].end - tr.spans[root].start
	}

	rows := tr.layerTable("serve.request/hit", "serve.request/miss", "serve.request/plan")
	printLayerTable(e, rows, wall, "serve.request/hit", "serve.request/miss", "serve.request/plan")
	if dropped > 0 || lost > 0 {
		e.printf("  note: program traces dropped %d spans; %d request traces were not retained by obs.Flight\n", dropped, lost)
	}
	printStages(e, "the traced run (each miss characterizes twice: in ServeHTTP and in AnalyzeOn)", stagesBefore)
	e.printf("  note: the server calls Engine.Plan without the request's context, so a served plan's search is\n" +
		"  the request span's self time here, not plan_run; plan.PlanSearch shows the same search split\n")
	fp := rowOf(rows, "footprint")
	ch := rowOf(rows, "characterize")
	fpShare := 100 * float64(fp.self) / float64(wall)
	perCall := func(r layerRow) float64 { return us(r.self) / math.Max(1, float64(r.count)) }
	perMiss := func(name string) float64 { return us(selfOf(rows, name)) / math.Max(1, float64(nMiss)) }
	ao := summarize(aoLat)
	e.set("core.size_solve_us_per_pair", perMiss("core.size_solve"), "us")
	e.set("symbolic.eval_us_per_pt", perCall(ch), "us")
	e.set("graph.footprint_us_per_pt", perCall(fp), "us")
	e.set("graph.footprint_share", fpShare, "%")
	e.set("costmodel.steptime_us_per_pt", perMiss("costmodel.steptime"), "us")
	e.set("catamount.analyze_on_ms_mean", mean(aoLat), "ms")

	e.printf("\nper-layer metrics (%d replayed misses, each one point, characterized twice)\n", nMiss)
	printComputeLayers(e)
	e.printf("    (eval is the characterize span's self time, footprint its child, both per characterization)\n")
	e.printf("%s", ao.line("catamount.analyze_on_ms", "ms"))
	e.printf("    (Engine.AnalyzeOn on each replayed miss key, every domain in turn; mean %.6g)\n", mean(aoLat))
	e.printf("%s", summarize(overhead).line("server.miss_overhead_us", "us"))
	e.printf("    (per miss: ServeHTTP latency minus the same key's direct AnalyzeOn)\n")
	e.printf("%s", summarize(planLat).line("plan.search_ms", "ms"))
	for c := reqClass(0); c < numClasses; c++ {
		e.printf("%s", summarize(serveLat[c]).line("server.serve_"+classNames[c]+"_ms", "ms"))
	}
	e.printf("  tracing cost: compare server.serve_*_ms (traced, one client) with the untraced per-class latencies below\n")
	return nil
}

// replayMiss replays one served miss under root: Engine.AnalyzeOn under a
// program trace, checked bit for bit against the served reply's inputs,
// then the size solve and the step-time pricing it contains, timed from
// outside since the program has no span for them.
func replayMiss(e *env, tr *tracer, eng *cat.Engine, cm costmodel.Model, root int32, r serveReq,
	dServe time.Duration, aoLat, overhead *[]float64, dropped *int) error {

	acc, err := hw.Lookup(r.accel)
	if err != nil {
		return err
	}
	a, err := eng.Analyzer(r.domain)
	if err != nil {
		return err
	}
	var est cat.RooflineEstimate
	var aerr error
	dAO, dr := tr.traced("catamount.AnalyzeOn", root, func(ctx context.Context) {
		_, est, aerr = eng.AnalyzeOn(ctx, r.domain, r.params, r.batch, acc, cm)
	})
	*dropped += dr
	e.attempted++
	if aerr != nil {
		e.fail(1, "AnalyzeOn: %v", aerr)
		return nil
	}
	*aoLat = append(*aoLat, ms(dAO))
	*overhead = append(*overhead, us(dServe-dAO))

	var size float64
	tr.do("core.size_solve", root, func() { size, err = a.SizeForParams(r.params) })
	if err != nil {
		return err
	}
	costs := a.StepCosts(size, r.batch, costmodel.NeedsOpCosts(cm))
	var step float64
	tr.do("costmodel.steptime", root, func() { step = cm.StepTime(acc, costs) })
	if math.Float64bits(step) != math.Float64bits(est.StepSeconds) {
		e.fail(1, "request %d: StepTime %v differs from AnalyzeOn's %v", r.seq, step, est.StepSeconds)
	}
	return nil
}
