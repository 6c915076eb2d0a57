package paper

import (
	"fmt"
	"sort"

	"glescompute/internal/core"
	"glescompute/internal/obs"
	"glescompute/internal/sched"
)

// Obs carries optional observability backends into the experiment
// runners: when non-nil, experiment queues attach the tracer and metric
// registry so paperbench can export a Chrome trace and a Prometheus dump
// of a real experiment run. A nil *Obs (the default everywhere) changes
// nothing about how experiments execute.
type Obs struct {
	Tracer  *obs.Tracer
	Metrics *obs.Registry
}

// apply attaches the backends to a queue configuration.
func (o *Obs) apply(cfg *sched.Config) {
	if o == nil {
		return
	}
	cfg.Tracer = o.Tracer
	cfg.Metrics = o.Metrics
}

// enabled reports whether attaching o would record anything.
func (o *Obs) enabled() bool {
	return o != nil && (o.Tracer != nil || o.Metrics != nil)
}

// ---- S2: serve-model — deterministic per-request latency quantiles ----
//
// The live S1 sweep reports wall-clock latency quantiles from the queue's
// histograms, but those depend on host timing and adaptive batching
// moment-to-moment, so they cannot be regression-gated. S2 computes the
// latency distribution the vc4 model prices for the same request stream
// served solo: each distinct payload's modeled launch time is measured
// once (deterministic — a pure function of the executed instruction
// stream), the stream's per-request latencies follow from the payload
// cycle, and the percentiles are exact order statistics over that stream.
// benchgate gates them lower-is-better.

// ServeModelResult is the S2 experiment's outcome.
type ServeModelResult struct {
	Jobs             int `json:"jobs"`
	N                int `json:"n"`
	DistinctPayloads int `json:"distinct_payloads"`

	// Exact order-statistic percentiles of the modeled solo per-request
	// latency over the S1 stream, in microseconds. Gated lower-is-better.
	P50ModeledUS float64 `json:"s1_p50_modeled_us"`
	P95ModeledUS float64 `json:"s1_p95_modeled_us"`
	P99ModeledUS float64 `json:"s1_p99_modeled_us"`

	// MeanModeledUS is the stream mean, for context (not gated).
	MeanModeledUS float64 `json:"s1_mean_modeled_us"`

	Validated bool `json:"validated"`
}

// exactPercentile returns the q-th percentile of sorted as the nearest-
// rank order statistic (the value at rank ceil(q·len), 1-based).
func exactPercentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// RunServeModel executes S2: measure each distinct S1 payload's modeled
// solo launch time once, expand it over the `jobs`-long request stream,
// and extract exact latency percentiles.
func RunServeModel(jobs, n int) (ServeModelResult, error) {
	payloads := servePayloads(n)
	res := ServeModelResult{Jobs: jobs, N: n, DistinctPayloads: len(payloads)}

	// One solo launch per distinct payload on a single-device queue with
	// batching off: the modeled Timeline of each launch is deterministic,
	// and the first-run compile is excluded by priming each kernel once.
	q, err := sched.OpenQueue(sched.Config{
		Devices:  1,
		MaxBatch: 1,
		Device:   core.Config{RasterWorkers: 1},
	})
	if err != nil {
		return res, err
	}
	defer q.Close()

	perPayload := make([]float64, len(payloads))
	for pass := 0; pass < 2; pass++ {
		for i := range payloads {
			j, err := q.Submit(nil, jobSpecFor(&payloads[i]))
			if err != nil {
				return res, err
			}
			r, err := j.Wait(nil)
			if err != nil {
				return res, fmt.Errorf("paper: serve-model: payload %d: %w", i, err)
			}
			// Second pass runs against warm kernel caches, so the recorded
			// time is the steady-state launch cost a served request pays.
			perPayload[i] = float64(r.Stats.Time.Total().Microseconds())
		}
	}

	lat := make([]float64, jobs)
	var sum float64
	for i := 0; i < jobs; i++ {
		// payloadFor indexes by stream position; recover the payload's
		// index by pointer arithmetic-free identity search over the small
		// distinct set.
		p := payloadFor(payloads, i)
		var v float64
		for k := range payloads {
			if &payloads[k] == p {
				v = perPayload[k]
				break
			}
		}
		lat[i] = v
		sum += v
	}
	sort.Float64s(lat)
	res.P50ModeledUS = exactPercentile(lat, 0.50)
	res.P95ModeledUS = exactPercentile(lat, 0.95)
	res.P99ModeledUS = exactPercentile(lat, 0.99)
	if jobs > 0 {
		res.MeanModeledUS = sum / float64(jobs)
	}
	if res.P50ModeledUS <= 0 || res.P50ModeledUS > res.P95ModeledUS || res.P95ModeledUS > res.P99ModeledUS {
		return res, fmt.Errorf("paper: serve-model: degenerate percentiles p50 %.1f p95 %.1f p99 %.1f",
			res.P50ModeledUS, res.P95ModeledUS, res.P99ModeledUS)
	}
	res.Validated = true
	return res, nil
}
