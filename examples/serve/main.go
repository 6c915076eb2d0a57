// Command serve demonstrates the compute service: a pool of simulated
// ES 2.0 devices behind an asynchronous queue, fed a stream of small
// requests from concurrent clients. Submissions return immediately;
// same-kernel requests are coalesced into shared fragment passes; the
// final report shows per-device sharding, batching occupancy, modeled
// service throughput and the latency quantiles the queue's histograms
// collected. The run's spans are written as serve_trace.json — load it
// in Perfetto or chrome://tracing to see each job travel queue → device.
//
// The queue is opened with the serving-at-scale levers on: a shared
// compile cache (the pool compiles the kernel once, every other device
// restores the program binary), a batching window (coalescible requests
// arriving within it share a launch), and SLO-aware admission control —
// after the main burst, a deliberate overload flood shows batch-class
// requests being shed with ErrShed while the service stays inside its
// delay budget.
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"
	"time"

	"glescompute"
	"glescompute/obs"
)

func main() {
	tracer := obs.NewTracer(0)
	metrics := obs.NewRegistry()
	// One compile cache for the whole pool: the second device restores the
	// kernel as a program binary instead of recompiling. Point it at a
	// directory (or set GLESCOMPUTE_COMPILE_CACHE) and it also survives
	// process restarts.
	ccache, err := glescompute.NewCompileCache("")
	if err != nil {
		log.Fatal(err)
	}
	q, err := glescompute.OpenQueue(glescompute.QueueConfig{
		Devices:     2,
		MaxBatch:    16,
		BatchWindow: 200 * time.Microsecond, // hold coalescible jobs briefly to fill batches
		// Shed work when the estimated modeled queue delay tops 50ms
		// (25ms for batch-class jobs, 100ms for interactive ones). The
		// client burst below stays well inside the budget; the overload
		// flood afterwards does not.
		Admission: glescompute.AdmissionPolicy{TargetDelay: 50 * time.Millisecond},
		Device:    glescompute.Config{CompileCache: ccache},
		Tracer:    tracer,
		Metrics:   metrics,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer q.Close()

	// The service's one hot kernel: element-wise a+b over int32 arrays.
	// Content-identical specs compile once per pooled device.
	sum := glescompute.KernelSpec{
		Name:    "sum",
		Inputs:  []glescompute.Param{{Name: "a", Type: glescompute.Int32}, {Name: "b", Type: glescompute.Int32}},
		Outputs: []glescompute.OutputSpec{{Name: "out", Type: glescompute.Int32}},
		Source:  `float gc_kernel(float idx) { return gc_a(idx) + gc_b(idx); }`,
	}

	// Four concurrent clients, each firing 64 small requests in waves of
	// 32 and validating its own responses. The wave bounds what admission
	// control can see: its estimate is jobs in flight × the EWMA of modeled
	// per-job launch cost ÷ 2 devices, and no launch of this kernel costs
	// more per job than a solo one (661µs modeled), so at most 4×32 = 128
	// jobs in flight estimate at most 42ms — inside the 50ms normal-class
	// budget on every run, however the clients interleave. Unbounded, 256
	// in flight behind one solo launch would estimate 85ms and shed.
	const clients = 4
	const perClient = 64
	const wave = 32
	const n = 64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			type req struct {
				a, b []int32
				job  *glescompute.Job
			}
			reqs := make([]req, perClient)
			for w0 := 0; w0 < perClient; w0 += wave {
				// Fire the whole wave first — Submit returns as soon as
				// the job is queued, so the client never blocks on the
				// GPU …
				for r := w0; r < w0+wave; r++ {
					a := make([]int32, n)
					b := make([]int32, n)
					for i := range a {
						a[i] = int32(rng.Intn(1 << 20))
						b[i] = int32(rng.Intn(1 << 20))
					}
					job, err := q.Submit(nil, glescompute.JobSpec{
						Kernel:    sum,
						In:        []glescompute.JobInput{glescompute.Int32Input(a), glescompute.Int32Input(b)},
						Batchable: true, // element-wise: may share a launch
					})
					if err != nil {
						log.Fatal(err)
					}
					reqs[r] = req{a: a, b: b, job: job}
				}
				// … then collect the responses. Each Wait delivers that
				// job's slice of whatever coalesced launch carried it,
				// plus the launch's modeled timeline.
				for r := w0; r < w0+wave; r++ {
					rq := reqs[r]
					res, err := rq.job.Wait(nil)
					if err != nil {
						log.Fatal(err)
					}
					got, err := res.Int32()
					if err != nil {
						log.Fatal(err)
					}
					for i := range rq.a {
						if got[i] != rq.a[i]+rq.b[i] {
							log.Fatalf("client %d: wrong sum at %d: %d != %d", c, i, got[i], rq.a[i]+rq.b[i])
						}
					}
					if r == perClient-1 {
						fmt.Printf("client %d: last job ran on device %d in a batch of %d, modeled launch %v\n",
							c, res.Stats.Device, res.Stats.BatchSize, res.Stats.Time.Total().Round(time.Microsecond))
					}
				}
			}
		}(c)
	}
	wg.Wait()
	fmt.Printf("\n%d jobs from %d clients in %v (all results verified)\n",
		clients*perClient, clients, time.Since(start).Round(time.Millisecond))

	// ---- Overload: admission control sheds batch-class traffic ----
	// A few expensive requests teach the admission estimator what this
	// workload costs (it tracks an EWMA of modeled per-job launch time);
	// the flood that follows then piles up a backlog whose estimated
	// delay blows the batch-class budget, and Submit starts rejecting
	// with ErrShed immediately instead of letting requests rot in queue.
	const bigN = 1 << 15
	bigA, bigB := make([]int32, bigN), make([]int32, bigN)
	for i := range bigA {
		bigA[i], bigB[i] = int32(i), int32(2*i)
	}
	bigSpec := glescompute.JobSpec{
		Kernel:   sum,
		In:       []glescompute.JobInput{glescompute.Int32Input(bigA), glescompute.Int32Input(bigB)},
		Priority: glescompute.PriorityBatch, // best effort: first to shed
	}
	for i := 0; i < 4; i++ {
		job, err := q.Submit(nil, bigSpec)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := job.Wait(nil); err != nil {
			log.Fatal(err)
		}
	}
	var flood []*glescompute.Job
	shed := 0
	for i := 0; i < 64; i++ {
		job, err := q.Submit(nil, bigSpec)
		switch {
		case err == nil:
			flood = append(flood, job)
		case errors.Is(err, glescompute.ErrShed):
			shed++ // over capacity: drop, degrade, or redirect — don't requeue
		default:
			log.Fatal(err)
		}
	}
	for _, job := range flood {
		if _, err := job.Wait(nil); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("overload flood: %d admitted, %d shed by admission control (batch class)\n\n",
		len(flood), shed)

	st := q.Stats()
	fmt.Print(st.Report())

	// Latency quantiles from the queue's always-on histograms: end-to-end
	// (submit → result) and time spent waiting for a device slot.
	fmt.Printf("\n%-12s %10s %10s %10s\n", "latency", "p50", "p95", "p99")
	fmt.Printf("%-12s %10v %10v %10v\n", "end-to-end",
		st.LatencyP50.Round(time.Microsecond),
		st.LatencyP95.Round(time.Microsecond),
		st.LatencyP99.Round(time.Microsecond))
	fmt.Printf("%-12s %10v %10v %10v\n", "queue-wait",
		st.QueueWaitP50.Round(time.Microsecond),
		st.QueueWaitP95.Round(time.Microsecond),
		st.QueueWaitP99.Round(time.Microsecond))
	fmt.Printf("max pending seen: %d\n", st.MaxPendingSeen)

	f, err := os.Create("serve_trace.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %d trace events to serve_trace.json — open it at https://ui.perfetto.dev\n", tracer.Len())
}
