package paper

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"glescompute/internal/core"
	"glescompute/internal/sched"
)

// ---- S3: serve-load — open-loop Poisson arrivals vs tail latency ----
//
// S1 and S2 measure the service closed-loop: every request is already
// submitted when the clock starts, so they report capacity, never how
// latency degrades as an *arrival rate* approaches capacity — the curve
// a serving system is actually provisioned against. S3 is that harness:
// a deterministic seeded Poisson arrival process over the S1 request
// stream, swept across offered load (arrival rate as a fraction of pool
// capacity) and pool size, under the queue's SLO-aware admission control
// and priority classes.
//
// The gated figures come from a discrete-event simulation in the repo's
// deterministic currency: each distinct payload's modeled solo launch
// time is measured once (a pure function of the executed instruction
// stream, as in S2), then the sweep replays the seeded arrival stream
// against a c-server FIFO queue of those modeled service times. The
// whole sweep is exact arithmetic — the same seed and binary produce
// the same microsecond on every host — so benchgate can gate the
// reference point's p99 lower-is-better. A live pass then pushes the
// same stream through a real sched.Queue with admission control enabled,
// proving the machinery end to end: shed requests fail fast with
// ErrShed, admitted requests return bit-identical outputs.

// ServeLoadPoint is one (offered load, pool size) cell of the sweep.
type ServeLoadPoint struct {
	Load float64 `json:"offered_load"` // arrival rate ÷ pool capacity
	Pool int     `json:"pool"`

	Requests int `json:"requests"`
	Admitted int `json:"admitted"`
	// Shed splits by priority class: under overload the batch class goes
	// first (half the SLO budget), interactive last (twice the budget).
	Shed            int `json:"shed"`
	ShedBatch       int `json:"shed_batch"`
	ShedNormal      int `json:"shed_normal"`
	ShedInteractive int `json:"shed_interactive"`

	// Sojourn-time (admission to completion) percentiles of admitted
	// requests, modeled microseconds — exact order statistics.
	P50US float64 `json:"p50_modeled_us"`
	P95US float64 `json:"p95_modeled_us"`
	P99US float64 `json:"p99_modeled_us"`
	// P99InteractiveUS is the interactive class's own tail: admission
	// control's point is that this stays bounded while batch traffic is
	// shed.
	P99InteractiveUS float64 `json:"p99_interactive_modeled_us"`

	UtilizationPct float64 `json:"utilization_pct"`
}

// ServeLoadResult is the S3 experiment's outcome.
type ServeLoadResult struct {
	Jobs             int     `json:"jobs"` // simulated requests per point
	N                int     `json:"n"`
	Seed             int64   `json:"seed"`
	DistinctPayloads int     `json:"distinct_payloads"`
	MeanServiceUS    float64 `json:"mean_service_modeled_us"`
	// SLOTargetUS is the queue-delay SLO the admission controller
	// protects: 10× the mean modeled service time.
	SLOTargetUS float64 `json:"slo_target_us"`

	Points []ServeLoadPoint `json:"points"`

	// The benchgate reference point: p99 modeled sojourn at the largest
	// pool under moderate load, gated lower-is-better (a cheaper launch
	// pipeline moves it down; a scheduling regression moves it up).
	RefLoad float64 `json:"ref_load"`
	RefPool int     `json:"ref_pool"`
	RefP99  float64 `json:"s3_p99_modeled_us"`

	// Live pass through a real queue with admission control on.
	LiveRequests int    `json:"live_requests"`
	LiveAdmitted int    `json:"live_admitted"`
	LiveShed     uint64 `json:"live_shed"`

	// Validated: the live pass shed under overload AND every admitted
	// request's output was bit-identical to the synchronous reference.
	Validated bool `json:"s3_validated"`
}

// s3Priority assigns the stream's deterministic priority mix: every 4th
// request interactive, every 4th (offset 2) batch, the rest normal.
func s3Priority(i int) sched.Priority {
	switch i % 4 {
	case 0:
		return sched.PriorityInteractive
	case 2:
		return sched.PriorityBatch
	}
	return sched.PriorityNormal
}

// s3Budget mirrors sched.AdmissionPolicy's per-class shed thresholds.
func s3Budget(sloUS float64, p sched.Priority) float64 {
	switch {
	case p < 0:
		return sloUS / 2
	case p > 0:
		return sloUS * 2
	}
	return sloUS
}

// simServeLoad replays one (load, pool) cell: seeded exponential
// interarrivals at rate load·pool/meanSvc against pool FIFO servers of
// the measured modeled service times. The simulator is clairvoyant —
// admission sheds on the *exact* wait the request would see — which is
// the policy's intent; the live queue approximates the same decision
// with its EWMA estimator.
func simServeLoad(svcUS []float64, meanSvcUS, load float64, pool int, sloUS float64, seed int64) ServeLoadPoint {
	pt := ServeLoadPoint{Load: load, Pool: pool, Requests: len(svcUS)}
	rng := rand.New(rand.NewSource(seed ^ int64(pool)<<32 ^ int64(load*1000)))
	rate := load * float64(pool) / meanSvcUS // arrivals per modeled µs

	free := make([]float64, pool)
	var busyUS float64
	var t, end float64
	sojourn := make([]float64, 0, len(svcUS))
	var interactive []float64
	for i, svc := range svcUS {
		t += rng.ExpFloat64() / rate
		// Earliest-free server; FIFO within the queue, so the wait is
		// exactly how far ahead of now that server frees up.
		bi := 0
		for s := 1; s < pool; s++ {
			if free[s] < free[bi] {
				bi = s
			}
		}
		start := t
		if free[bi] > start {
			start = free[bi]
		}
		p := s3Priority(i)
		if wait := start - t; wait > s3Budget(sloUS, p) {
			pt.Shed++
			switch {
			case p < 0:
				pt.ShedBatch++
			case p > 0:
				pt.ShedInteractive++
			default:
				pt.ShedNormal++
			}
			continue
		}
		finish := start + svc
		free[bi] = finish
		busyUS += svc
		if finish > end {
			end = finish
		}
		d := finish - t
		sojourn = append(sojourn, d)
		if p > 0 {
			interactive = append(interactive, d)
		}
	}
	pt.Admitted = len(sojourn)
	sort.Float64s(sojourn)
	sort.Float64s(interactive)
	pt.P50US = exactPercentile(sojourn, 0.50)
	pt.P95US = exactPercentile(sojourn, 0.95)
	pt.P99US = exactPercentile(sojourn, 0.99)
	pt.P99InteractiveUS = exactPercentile(interactive, 0.99)
	if end > 0 {
		pt.UtilizationPct = 100 * busyUS / (end * float64(pool))
	}
	return pt
}

// measureServiceTimes returns each distinct S1 payload's modeled solo
// launch time in microseconds (second pass, warm kernel caches — the
// steady-state cost a served request pays), exactly as S2 measures them.
func measureServiceTimes(payloads []servePayload) ([]float64, error) {
	q, err := sched.OpenQueue(sched.Config{
		Devices:  1,
		MaxBatch: 1,
		Device:   core.Config{RasterWorkers: 1},
	})
	if err != nil {
		return nil, err
	}
	defer q.Close()
	per := make([]float64, len(payloads))
	for pass := 0; pass < 2; pass++ {
		for i := range payloads {
			j, err := q.Submit(nil, jobSpecFor(&payloads[i]))
			if err != nil {
				return nil, err
			}
			r, err := j.Wait(nil)
			if err != nil {
				return nil, fmt.Errorf("paper: serve-load: payload %d: %w", i, err)
			}
			per[i] = float64(r.Stats.Time.Total().Microseconds())
		}
	}
	return per, nil
}

// runServeLoadLive floods a real 2-device queue — admission control on,
// continuous-batching window on — with the request stream at full speed:
// overload by construction. It returns how many requests were shed and
// admitted, after checking every admitted output bit-for-bit against the
// synchronous reference.
func runServeLoadLive(payloads []servePayload, requests int, sloUS float64, ob *Obs) (admitted int, shed uint64, err error) {
	cfg := sched.Config{
		Devices:     2,
		MaxBatch:    16,
		BatchWindow: 500 * time.Microsecond,
		Device:      core.Config{RasterWorkers: 1},
		Admission:   sched.AdmissionPolicy{TargetDelay: time.Duration(sloUS) * time.Microsecond},
	}
	ob.apply(&cfg)
	q, err := sched.OpenQueue(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer q.Close()

	// Warm the pool (and the admission estimator's EWMA — it only has
	// data once a launch has completed) with one request per distinct
	// payload, then reset the tallies so the flood is measured alone.
	for i := range payloads {
		j, err := q.Submit(nil, jobSpecFor(&payloads[i]))
		if err != nil {
			return 0, 0, err
		}
		if _, err := j.Wait(nil); err != nil {
			return 0, 0, err
		}
	}
	q.ResetStats()

	type inflight struct {
		job *sched.Job
		p   *servePayload
	}
	var live []inflight
	for i := 0; i < requests; i++ {
		p := payloadFor(payloads, i)
		spec := jobSpecFor(p)
		spec.Priority = s3Priority(i)
		j, err := q.Submit(context.Background(), spec)
		if err != nil {
			if sched.IsShed(err) {
				continue
			}
			return 0, 0, err
		}
		live = append(live, inflight{j, p})
	}
	q.Drain()
	for i, f := range live {
		r, err := f.job.Wait(nil)
		if err != nil {
			return 0, 0, fmt.Errorf("paper: serve-load: admitted job %d: %w", i, err)
		}
		got, err := r.Int32()
		if err != nil {
			return 0, 0, err
		}
		if len(got) != len(f.p.out) {
			return 0, 0, fmt.Errorf("paper: serve-load: job %d: %d outputs, want %d", i, len(got), len(f.p.out))
		}
		for k := range got {
			if got[k] != f.p.out[k] {
				return 0, 0, fmt.Errorf("paper: serve-load: job %d element %d = %d, reference %d — not bit-identical",
					i, k, got[k], f.p.out[k])
			}
		}
	}
	st := q.Stats()
	return len(live), st.Shed, nil
}

// RunServeLoad executes S3. jobs is the simulated request count per
// sweep cell; n sizes the sum payloads (as in S1); seed drives the
// arrival process. The live overload pass uses min(jobs, 300) requests.
func RunServeLoad(jobs, n int, seed int64, ob *Obs) (ServeLoadResult, error) {
	payloads := servePayloads(n)
	res := ServeLoadResult{Jobs: jobs, N: n, Seed: seed, DistinctPayloads: len(payloads)}
	if jobs < 100 {
		return res, fmt.Errorf("paper: serve-load: need jobs >= 100 for stable percentiles, got %d", jobs)
	}
	if err := serveReference(payloads); err != nil {
		return res, err
	}
	perPayload, err := measureServiceTimes(payloads)
	if err != nil {
		return res, err
	}

	// Expand the per-payload times over the request stream and take the
	// mean — the capacity unit the offered-load axis is scaled by.
	svcUS := make([]float64, jobs)
	var sum float64
	for i := 0; i < jobs; i++ {
		p := payloadFor(payloads, i)
		for k := range payloads {
			if &payloads[k] == p {
				svcUS[i] = perPayload[k]
				break
			}
		}
		sum += svcUS[i]
	}
	res.MeanServiceUS = sum / float64(jobs)
	res.SLOTargetUS = 10 * res.MeanServiceUS

	pools := []int{1, 2, 4}
	loads := []float64{0.5, 0.7, 0.9, 1.2}
	res.RefLoad, res.RefPool = 0.7, 4
	for _, pool := range pools {
		for _, load := range loads {
			pt := simServeLoad(svcUS, res.MeanServiceUS, load, pool, res.SLOTargetUS, seed)
			if pt.P50US <= 0 || pt.P50US > pt.P95US || pt.P95US > pt.P99US {
				return res, fmt.Errorf("paper: serve-load: degenerate percentiles at load %.2f pool %d: p50 %.1f p95 %.1f p99 %.1f",
					load, pool, pt.P50US, pt.P95US, pt.P99US)
			}
			// Admission keeps every admitted request's wait inside its
			// class budget, so the interactive tail is bounded by
			// construction: 2×SLO of wait plus the worst service time.
			var maxSvc float64
			for _, s := range perPayload {
				if s > maxSvc {
					maxSvc = s
				}
			}
			if bound := 2*res.SLOTargetUS + maxSvc; pt.P99InteractiveUS > bound {
				return res, fmt.Errorf("paper: serve-load: interactive p99 %.1fµs exceeds admission bound %.1fµs at load %.2f pool %d",
					pt.P99InteractiveUS, bound, load, pool)
			}
			res.Points = append(res.Points, pt)
			if load == res.RefLoad && pool == res.RefPool {
				res.RefP99 = pt.P99US
			}
		}
		// Tail latency must grow with offered load while nothing sheds,
		// and sustained overload (load 1.2 > capacity) must shed — with
		// the batch class shedding at least as hard as interactive.
		base := res.Points[len(res.Points)-len(loads):]
		if base[2].P99US < base[0].P99US {
			return res, fmt.Errorf("paper: serve-load: pool %d p99 fell from %.1fµs (load 0.5) to %.1fµs (load 0.9)",
				pool, base[0].P99US, base[2].P99US)
		}
		over := base[len(loads)-1]
		if over.Shed == 0 {
			return res, fmt.Errorf("paper: serve-load: pool %d shed nothing at offered load %.2f — admission control is inert", pool, over.Load)
		}
		if over.ShedBatch < over.ShedInteractive {
			return res, fmt.Errorf("paper: serve-load: pool %d shed %d batch < %d interactive — priority inverted",
				pool, over.ShedBatch, over.ShedInteractive)
		}
	}
	if res.RefP99 <= 0 {
		return res, fmt.Errorf("paper: serve-load: reference point (load %.2f, pool %d) missing", res.RefLoad, res.RefPool)
	}

	liveN := jobs
	if liveN > 300 {
		liveN = 300
	}
	res.LiveRequests = liveN
	res.LiveAdmitted, res.LiveShed, err = runServeLoadLive(payloads, liveN, res.SLOTargetUS, ob)
	if err != nil {
		return res, err
	}
	if res.LiveAdmitted == 0 {
		return res, fmt.Errorf("paper: serve-load: live overload pass admitted nothing")
	}
	if res.LiveShed == 0 {
		return res, fmt.Errorf("paper: serve-load: live overload pass shed nothing — the flood should exceed the SLO")
	}
	res.Validated = true
	return res, nil
}
