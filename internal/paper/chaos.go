package paper

import (
	"fmt"
	"time"

	"glescompute/internal/core"
	"glescompute/internal/fault"
	"glescompute/internal/sched"
)

// ---- R1: chaos — fault-tolerant serving under a seeded fault schedule ----
//
// R1 replays a deterministic fault schedule (internal/fault) under the S1
// serving workload: a stream of small sum and sgemm requests over a
// device pool, with context losses, corrupted readbacks, transient
// allocation failures and latency stalls landing mid-flight. The
// experiment asserts the three properties a production service needs from
// the fault-tolerance layer:
//
//   1. zero lost jobs — every request completes despite faults (retry +
//      device replacement);
//   2. no corruption — every output is bit-identical to the fault-free
//      synchronous reference, including jobs whose first attempts died on
//      a corrupted or lost device;
//   3. recovery — the pool is back to full healthy capacity at the end
//      (the fault schedule gives each slot finitely many faulty context
//      incarnations, within the queue's replacement budget).

// ChaosResult is the R1 experiment's outcome.
type ChaosResult struct {
	Jobs    int   `json:"jobs"`
	N       int   `json:"n"`
	Devices int   `json:"devices"`
	Seed    int64 `json:"seed"`

	// Injected fault counts (fired, not merely scheduled).
	Injected fault.Stats `json:"injected"`

	// Service-side fault handling.
	Retries     uint64 `json:"retries"`
	Faults      uint64 `json:"device_faults"`
	Reopens     uint64 `json:"device_reopens"`
	MaxAttempts int    `json:"max_attempts"`
	FailedJobs  uint64 `json:"failed_jobs"`
	Healthy     int    `json:"healthy_devices_at_end"`

	WallMS float64 `json:"wall_ms"`

	// The asserted properties.
	ZeroLost       bool `json:"zero_lost"`
	BitIdentical   bool `json:"bit_identical"`
	Recovered      bool `json:"recovered_full_capacity"`
	FaultsInjected bool `json:"faults_injected"`

	// ChaosValidated ANDs them; benchgate fails the build if it regresses.
	ChaosValidated bool `json:"chaos_validated"`
}

// RunChaos executes R1: `jobs` requests of the S1 stream (sums of n
// elements, every 16th an 8×8 sgemm) through a `devices`-wide pool whose
// GL contexts carry the seeded fault schedule. ob, when carrying a tracer
// or registry, attaches directly to the (single) chaos queue — the
// exported trace then shows faults, retries and device replacements as
// they landed.
func RunChaos(jobs, n int, seed int64, devices int, ob *Obs) (ChaosResult, error) {
	if devices <= 0 {
		devices = 4
	}
	res := ChaosResult{Jobs: jobs, N: n, Devices: devices, Seed: seed}

	payloads := servePayloads(n)
	if err := serveReference(payloads); err != nil {
		return res, err
	}

	// Each faulty incarnation: 2 stalls and 2 transient OOMs early, then
	// one terminal fault (context loss or corrupted readback, alternating
	// per slot/incarnation) within the first 64 draws or reads — early
	// enough that every scheduled fault lands mid-flight, with traffic
	// still behind it. Two faulty incarnations per slot stay inside the
	// queue's default replacement budget, so recovery is guaranteed.
	plan := fault.NewPlan(seed, fault.Options{
		OpHorizon:            64,
		FaultyIncarnations:   2,
		StallsPerIncarnation: 2,
		OOMsPerIncarnation:   2,
		StallFor:             200 * time.Microsecond,
	})
	cfg := sched.Config{
		Devices:  devices,
		MaxBatch: 32,
		Device:   core.Config{RasterWorkers: 1},
		OpenDevice: func(slot int, dcfg core.Config) (*core.Device, error) {
			dev, err := core.Open(dcfg)
			if err != nil {
				return nil, err
			}
			dev.GL().SetFaultInjector(plan.Injector(slot))
			return dev, nil
		},
	}
	ob.apply(&cfg)
	q, err := sched.OpenQueue(cfg)
	if err != nil {
		return res, err
	}
	defer q.Close()

	retry := sched.RetryPolicy{Max: 8, Backoff: 200 * time.Microsecond, MaxBackoff: 5 * time.Millisecond}
	handles := make([]*sched.Job, jobs)
	start := time.Now()
	for i := 0; i < jobs; i++ {
		spec := jobSpecFor(payloadFor(payloads, i))
		spec.Retry = retry
		j, err := q.Submit(nil, spec)
		if err != nil {
			return res, err
		}
		handles[i] = j
	}
	q.Drain()
	res.WallMS = float64(time.Since(start).Microseconds()) / 1000

	res.ZeroLost = true
	res.BitIdentical = true
	for i, j := range handles {
		r, err := j.Wait(nil)
		if err != nil {
			res.ZeroLost = false
			return res, fmt.Errorf("chaos: job %d lost: %w", i, err)
		}
		if r.Stats.Attempts > res.MaxAttempts {
			res.MaxAttempts = r.Stats.Attempts
		}
		got, err := r.Int32()
		if err != nil {
			return res, err
		}
		want := payloadFor(payloads, i).out
		if len(got) != len(want) {
			res.BitIdentical = false
			return res, fmt.Errorf("chaos: job %d: %d outputs, want %d", i, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				res.BitIdentical = false
				return res, fmt.Errorf("chaos: job %d: output %d = %d, fault-free reference %d — corruption escaped",
					i, k, got[k], want[k])
			}
		}
	}

	st := q.Stats()
	res.Retries = st.Retries
	res.Faults = st.Faults
	res.Reopens = st.Reopens
	res.FailedJobs = st.Failed
	res.Healthy = st.HealthyDevices
	res.Injected = plan.Stats()

	res.ZeroLost = res.ZeroLost && st.Failed == 0
	res.Recovered = st.HealthyDevices == devices && st.DeadDevices == 0
	// Every fault kind must actually have fired — otherwise the run
	// proved nothing about that kind.
	res.FaultsInjected = res.Injected.ContextLost > 0 && res.Injected.CorruptReadbacks > 0 &&
		res.Injected.OutOfMemory > 0 && res.Injected.Stalls > 0
	res.ChaosValidated = res.ZeroLost && res.BitIdentical && res.Recovered && res.FaultsInjected
	if !res.ChaosValidated {
		return res, fmt.Errorf("chaos: validation failed: zero_lost=%v bit_identical=%v recovered=%v faults_injected=%v",
			res.ZeroLost, res.BitIdentical, res.Recovered, res.FaultsInjected)
	}
	return res, nil
}
