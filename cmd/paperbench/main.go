// Command paperbench regenerates the evaluation of Trompouki & Kosmidis,
// DATE 2016, printing paper-reported values next to the values this
// reproduction measures/models. See DESIGN.md §4 for the experiment index
// and EXPERIMENTS.md for recorded results and discussion.
//
// Usage:
//
//	paperbench [-exp all|list|<comma-separated experiment names>]
//	           [-sum-n N] [-sum-exec N] [-sgemm-n N] [-pipeline-n N]
//	           [-serve-jobs N] [-serve-n N] [-nn-requests N] [-nn-batch N]
//	           [-chaos-jobs N] [-chaos-seed S] [-chaos-devices N]
//	           [-raster-n N] [-raster-reps N]
//	           [-sl-jobs N] [-sl-seed S]
//	           [-trace FILE] [-metrics] [-json]
//
// One table in main lists every experiment with its description and
// runner: `-exp list` prints it, `-exp all` runs each row once in table
// order, and an unknown experiment name exits 2 instead of silently
// running nothing. Every pass/fail bar lives in the internal/paper
// runner; a failed bar exits 1.
//
// With -trace FILE, the experiment queues record per-job spans and the
// run's Chrome trace-event JSON is written to FILE (load it in Perfetto
// or chrome://tracing). With -metrics, the queues register their
// counters/gauges/histograms and a Prometheus-text dump is printed after
// the run (to stderr under -json, keeping stdout machine-readable).
// Both attach to the serve capture pass, the serve-load live pass, the
// nn-serve sweep and the chaos run.
//
// With -json, results are emitted as a single machine-readable JSON
// object on stdout (for capturing benchmark trajectories as BENCH_*.json)
// instead of the human-readable tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"glescompute/internal/codec"
	"glescompute/internal/obs"
	"glescompute/internal/paper"
)

// speedupJSON is the machine-readable form of one speedup experiment.
type speedupJSON struct {
	ID           string  `json:"id"`
	Kernel       string  `json:"kernel"`
	Elem         string  `json:"elem"`
	TargetN      int     `json:"target_n"`
	ExecN        int     `json:"exec_n"`
	PaperSpeedup float64 `json:"paper_speedup_x"`
	ModelSpeedup float64 `json:"model_speedup_x"`
	ExecSpeedup  float64 `json:"exec_only_speedup_x"`
	GPUMicros    int64   `json:"gpu_us"`
	CPUMicros    int64   `json:"cpu_us"`
	Validated    bool    `json:"validated"`
}

func toSpeedupJSON(s paper.Speedup) speedupJSON {
	return speedupJSON{
		ID: s.ID, Kernel: s.Kernel, Elem: s.Elem.String(),
		TargetN: s.TargetN, ExecN: s.ExecN,
		PaperSpeedup: s.PaperSpeedup,
		ModelSpeedup: s.ModelSpeedup(),
		ExecSpeedup:  s.ExecOnlySpeedup(),
		GPUMicros:    s.GPU.Total().Microseconds(),
		CPUMicros:    s.CPUTime.Microseconds(),
		Validated:    s.Validated,
	}
}

// pipelineJSON is the machine-readable form of the pipeline experiment.
type pipelineJSON struct {
	N                  int     `json:"n"`
	Passes             int     `json:"passes"`
	ResidentMicros     int64   `json:"resident_us"`
	RoundTripMicros    int64   `json:"round_trip_us"`
	ResidentHostBytes  uint64  `json:"resident_host_bytes"`
	RoundTripHostBytes uint64  `json:"round_trip_host_bytes"`
	SpeedupX           float64 `json:"speedup_x"`
	Validated          bool    `json:"validated"`
}

// emitFunc records one experiment's result: the JSON report entry under
// -json, otherwise the text table that renders it.
type emitFunc func(result interface{}, table func())

// experiment is one row of the paperbench index.
type experiment struct {
	name, desc string
	run        func(emit emitFunc) error
}

func main() {
	exp := flag.String("exp", "all", "experiment(s) to run: all or a comma-separated list")
	sumN := flag.Int("sum-n", 1<<20, "sum: full problem size (elements)")
	sumExec := flag.Int("sum-exec", 1<<14, "sum: executed size (extrapolated to -sum-n)")
	sgemmN := flag.Int("sgemm-n", 1024, "sgemm: full matrix dimension")
	pipelineN := flag.Int("pipeline-n", 1<<14, "pipeline: reduction chain size (elements)")
	serveJobs := flag.Int("serve-jobs", 10000, "serve: number of small requests in the stream")
	serveN := flag.Int("serve-n", 8, "serve, serve-load, chaos: elements per small sum request")
	nnRequests := flag.Int("nn-requests", 24, "nn-serve: inference requests in the float sweep")
	nnBatch := flag.Int("nn-batch", 8, "nn-serve: images coalesced per batched launch")
	chaosJobs := flag.Int("chaos-jobs", 10000, "chaos: requests in the faulted stream")
	chaosSeed := flag.Int64("chaos-seed", 20160316, "chaos: fault schedule seed")
	chaosDevices := flag.Int("chaos-devices", 4, "chaos: device pool width")
	rasterN := flag.Int("raster-n", 1<<18, "raster: fragments per draw in the worker sweep")
	rasterReps := flag.Int("raster-reps", 3, "raster: timed runs per worker count (fastest kept)")
	slJobs := flag.Int("sl-jobs", 20000, "serve-load: simulated requests per (load, pool) sweep point")
	slSeed := flag.Int64("sl-seed", 20160316, "serve-load: Poisson arrival seed")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON of the experiment queues to this file")
	metricsOut := flag.Bool("metrics", false, "print a Prometheus-text metrics dump after the run (stderr under -json)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	flag.Parse()

	speedupHeader := false // the T1 rows share one table header

	// schema versions the -json report layout so downstream consumers
	// (benchgate, trajectory tooling) can detect incompatible changes.
	report := map[string]interface{}{"schema": 1}

	// Shared observability backends: one tracer and one registry span
	// every experiment queue the run opens, so the exported trace holds
	// every workload on its own device tracks. The tracer is branded with
	// the fault seed — the one knob that changes the chaos run's shape —
	// so a trace names the schedule that produced it.
	var ob *paper.Obs
	if *traceFile != "" || *metricsOut {
		ob = &paper.Obs{}
		if *traceFile != "" {
			ob.Tracer = obs.NewTracer(*chaosSeed)
		}
		if *metricsOut {
			ob.Metrics = obs.NewRegistry()
		}
	}

	t1 := func(run func() (paper.Speedup, error)) func(emitFunc) error {
		return func(emit emitFunc) error {
			s, err := run()
			if err != nil {
				return err
			}
			emit(toSpeedupJSON(s), func() {
				if !speedupHeader {
					speedupHeader = true
					fmt.Println("Speedups over the CPU (paper §V; modeled wall time incl. transfers and compilation):")
					fmt.Printf("  %-5s %-16s %9s | %7s | %9s %9s | %10s %10s %s\n",
						"ID", "benchmark", "size", "paper", "model", "exec-only", "GPU", "CPU", "valid")
				}
				fmt.Printf("  %-5s %-16s %9d | %6.1fx | %8.2fx %8.2fx | %10v %10v %v\n",
					s.ID, fmt.Sprintf("%s (%s)", s.Kernel, s.Elem), s.TargetN,
					s.PaperSpeedup, s.ModelSpeedup(), s.ExecOnlySpeedup(),
					s.GPU.Total().Round(100000), s.CPUTime.Round(100000), s.Validated)
			})
			return nil
		}
	}

	// The experiment index, in run order: `-exp list` prints it, -exp
	// names are checked against it and `-exp all` runs every row once.
	// Every pass/fail bar lives in the internal/paper runner; a row only
	// renders the result.
	experiments := []experiment{
		{"sum-int", "T1.1 vector sum speedup, int32 (paper §V)",
			t1(func() (paper.Speedup, error) { return paper.RunSum(codec.Int32, *sumN, *sumExec) })},
		{"sum-float", "T1.2 vector sum speedup, float32 (paper §V)",
			t1(func() (paper.Speedup, error) { return paper.RunSum(codec.Float32, *sumN, *sumExec) })},
		{"sgemm-int", "T1.3 dense matrix multiply speedup, int32 (paper §V)",
			t1(func() (paper.Speedup, error) { return paper.RunSgemm(codec.Int32, *sgemmN, 16, 32) })},
		{"sgemm-float", "T1.4 dense matrix multiply speedup, float32 (paper §V)",
			t1(func() (paper.Speedup, error) { return paper.RunSgemm(codec.Float32, *sgemmN, 16, 32) })},
		{"precision", "P1 float codec accuracy (paper: ~15 mantissa bits)", func(emit emitFunc) error {
			res, err := paper.RunPrecision(500)
			if err != nil {
				return err
			}
			emit(res, func() {
				fmt.Println()
				fmt.Println("P1 — float accuracy (paper §V: within the 15 most significant mantissa bits):")
				fmt.Printf("  GPU round trip over %d samples: worst %d bits, mean %.1f bits (paper: 15)\n",
					res.Samples, res.MinBitsGPU, res.MeanBitsGPU)
				fmt.Printf("  same transformation on the CPU: exact = %v (paper: precise)\n", res.CPUExact)
			})
			return nil
		}},
		{"int24", "P2 integer precision window (paper §IV-C: 24-bit)", func(emit emitFunc) error {
			res, err := paper.RunInt24()
			if err != nil {
				return err
			}
			emit(res, func() {
				fmt.Println()
				fmt.Println("P2 — integer precision (paper §IV-C: equivalent to a 24-bit integer):")
				fmt.Printf("  values ≤ 2^24 round-trip exactly: %v\n", res.ExactThrough24)
				fmt.Printf("  2^24+1 loses precision:           %v\n", res.InexactPast24)
			})
			return nil
		}},
		{"fig1", "F1 addressing trace (paper Fig. 1)", func(emit emitFunc) error {
			out, err := paper.Fig1Trace()
			if err != nil {
				return err
			}
			emit(out, func() { fmt.Println(); fmt.Print(out) })
			return nil
		}},
		{"fig2", "F2 codec shader dump (paper Fig. 2)", func(emit emitFunc) error {
			out := paper.Fig2Dump(nil)
			emit(out, func() { fmt.Println(); fmt.Print(out) })
			return nil
		}},
		{"sfu-sweep", "A2 SFU precision sweep behind the 15-bit figure", func(emit emitFunc) error {
			points, err := paper.RunSFUSweep(200)
			if err != nil {
				return err
			}
			emit(points, func() {
				fmt.Println()
				fmt.Println("A2 — SFU precision sweep (where the paper's 15 bits comes from):")
				fmt.Println("  SFU mantissa bits | achieved codec accuracy (worst case)")
				for _, p := range points {
					label := fmt.Sprintf("%d", p.SFUMantissaBits)
					if p.SFUMantissaBits == 0 {
						label = "exact"
					}
					fmt.Printf("  %17s | %d bits\n", label, p.MinBits)
				}
			})
			return nil
		}},
		{"halffloat", "A4 fp16 extension vs the paper's codec", func(emit emitFunc) error {
			res, err := paper.RunHalfFloatComparison(1000)
			if err != nil {
				return err
			}
			emit(res, func() {
				fmt.Println()
				fmt.Println("A4 — half-float extension vs the paper's codec (paper §II: fp16 is 'neither enough nor portable'):")
				fmt.Printf("  corpus: %d fp32 values spanning 1e-6..1e6\n", res.Samples)
				fmt.Printf("  fp16 extension:  %4d/%d values lost to range (overflow/underflow), worst %d bits, mean %.1f bits\n",
					res.FP16RangeLoss, res.Samples, res.MinBitsFP16, res.MeanBitsFP16)
				fmt.Printf("  paper's codec:   %4d/%d values lost,                              worst %d bits, mean %.1f bits\n",
					res.CodecRangeLoss, res.Samples, res.MinBitsCodec, res.MeanBitsCodec)
			})
			return nil
		}},
		{"pipeline", "P3 device-resident pipeline vs host round-trip chaining", func(emit emitFunc) error {
			res, err := paper.RunPipelineChain(*pipelineN)
			if err != nil {
				return err
			}
			emit(pipelineJSON{
				N: res.N, Passes: res.Passes,
				ResidentMicros:     res.Resident.Total().Microseconds(),
				RoundTripMicros:    res.RoundTrip.Total().Microseconds(),
				ResidentHostBytes:  res.ResidentHostBytes,
				RoundTripHostBytes: res.RoundTripHostBytes,
				SpeedupX:           res.SpeedupX(),
				Validated:          res.Validated,
			}, func() {
				fmt.Println()
				fmt.Printf("P3 — device-resident pipeline vs host round-trip chaining (sum reduction, n=%d, %d passes):\n",
					res.N, res.Passes)
				fmt.Printf("  device-resident: %8d host bytes, model %10v (exec %v)\n",
					res.ResidentHostBytes, res.Resident.Total().Round(10000), res.Resident.Execute.Round(10000))
				fmt.Printf("  host round-trip: %8d host bytes, model %10v (exec %v)\n",
					res.RoundTripHostBytes, res.RoundTrip.Total().Round(10000), res.RoundTrip.Execute.Round(10000))
				fmt.Printf("  chain speedup: %.1fx; results bit-identical: %v\n", res.SpeedupX(), res.Validated)
			})
			return nil
		}},
		{"serve", "S1 concurrent compute service (queue, batching, devices)", func(emit emitFunc) error {
			res, err := paper.RunServe(*serveJobs, *serveN, nil, ob)
			if err != nil {
				return err
			}
			emit(res, func() {
				fmt.Println()
				fmt.Printf("S1 — concurrent compute service (%d requests: 15/16 sum n=%d, 1/16 sgemm %d×%d):\n",
					res.Jobs, res.N, res.SgemmN, res.SgemmN)
				fmt.Printf("  %-7s %-8s | %12s %12s | %10s %10s | %8s %9s\n",
					"devices", "batching", "model jobs/s", "wall jobs/s", "model", "wall", "launches", "occupancy")
				for _, pt := range res.Points {
					fmt.Printf("  %-7d %-8v | %12.0f %12.0f | %9.0fms %9.0fms | %8d %8.1fx\n",
						pt.Devices, pt.Batching, pt.ModelJobsPerSec, pt.WallJobsPerSec,
						pt.ModelMS, pt.WallMS, pt.Launches, pt.Occupancy)
				}
				fmt.Printf("  batched pool vs naive single device: %.1fx modeled, %.1fx wall clock\n",
					res.ModelSpeedupX, res.WallSpeedupX)
				fmt.Printf("  all outputs bit-identical to synchronous Kernel.Run: %v\n", res.Validated)
				if res.EffectiveCPUs < 2 {
					fmt.Printf("  note: single-CPU execution (min(NumCPU, GOMAXPROCS) = %d) — device-pool wall parallelism unavailable, the wall bar is the batching-only win\n",
						res.EffectiveCPUs)
				}
			})
			return nil
		}},
		{"serve-load", "S3 open-loop Poisson load sweep: offered load × pool vs modeled tail latency under SLO admission control", func(emit emitFunc) error {
			res, err := paper.RunServeLoad(*slJobs, *serveN, *slSeed, ob)
			if err != nil {
				return err
			}
			emit(res, func() {
				fmt.Println()
				fmt.Printf("S3 — open-loop load sweep (%d simulated requests/point, seed %d, mean service %.0fµs, SLO %.0fµs):\n",
					res.Jobs, res.Seed, res.MeanServiceUS, res.SLOTargetUS)
				fmt.Printf("  service time at vanishing load (%d distinct payloads, solo launches): p50 %.0fµs   p95 %.0fµs   p99 %.0fµs modeled\n",
					res.DistinctPayloads, res.P50ModeledUS, res.P95ModeledUS, res.P99ModeledUS)
				fmt.Printf("  %-5s %-4s | %9s %9s %9s | %11s | %6s %20s | %5s\n",
					"load", "pool", "p50", "p95", "p99", "p99 interac", "shed", "(batch/norm/interac)", "util")
				for _, pt := range res.Points {
					fmt.Printf("  %-5.2f %-4d | %7.0fµs %7.0fµs %7.0fµs | %9.0fµs | %6d %8d/%d/%d %7s | %4.0f%%\n",
						pt.Load, pt.Pool, pt.P50US, pt.P95US, pt.P99US, pt.P99InteractiveUS,
						pt.Shed, pt.ShedBatch, pt.ShedNormal, pt.ShedInteractive, "",
						pt.UtilizationPct)
				}
				fmt.Printf("  reference point (load %.2f, pool %d): p99 %.0fµs modeled\n", res.RefLoad, res.RefPool, res.RefP99)
				fmt.Printf("  live overload pass (%d requests, real queue): %d admitted, %d shed; admitted bit-identical: %v\n",
					res.LiveRequests, res.LiveAdmitted, res.LiveShed, res.Validated)
			})
			return nil
		}},
		{"nn", "N1 neural-network inference: per-layer table, int32 bit-identity, fusion on/off, int8 lane width", func(emit emitFunc) error {
			res, err := paper.RunNN()
			if err != nil {
				return err
			}
			emit(res, func() {
				fmt.Println()
				fmt.Printf("N1 — neural-network inference (LeNet-scale CNN, %s input, float32, batch 1):\n", res.InShape)
				fmt.Printf("  %-9s %-8s %-9s | %11s %11s %8s | %9s\n",
					"layer", "kind", "out", "GPU model", "CPU model", "speedup", "max err")
				for _, l := range res.Layers {
					fmt.Printf("  %-9s %-8s %-9s | %9.0fµs %9.0fµs %7.2fx | %9.2g\n",
						l.Name, l.Kind, l.OutShape, l.GPUUS, l.CPUUS, l.SpeedupX, l.MaxErr)
				}
				fmt.Printf("  %-28s | %9.0fµs %9.0fµs %7.2fx | (end-to-end, warm)\n",
					"whole network", res.NetGPUUS, res.NetCPUUS, res.ModelSpeedupX)
				fmt.Printf("  float layers within codec tolerance: %v; int32 configuration (%d layers) bit-identical: %v\n",
					res.FloatValidated, res.IntLayers, res.IntValidated)
				fmt.Printf("  kernel fusion: %d passes vs %d unfused — net %.0fµs vs %.0fµs, %.2fx; int32 fused bit-identical: %v\n",
					res.FusedPasses, res.UnfusedPasses,
					res.NetGPUUS, res.UnfusedNetGPUUS, res.FusionSpeedupX, res.FusionValidated)
				fmt.Printf("  fused passes: %s\n", strings.Join(res.FusedStages, ", "))
				fmt.Printf("  int8 vec4 packing (%d layers, batch %d, warm): scalar %.0fµs vs vec4 %.0fµs, %.2fx; both lowerings bit-identical to refcpu: %v\n",
					res.Int8Layers, 4, res.Int8ScalarUS, res.Int8Vec4US, res.Vec4SpeedupX, res.Vec4Validated)
			})
			return nil
		}},
		{"nn-serve", "N1 serving: float solo-vs-batch queue sweep and int8 continuous batching", func(emit emitFunc) error {
			res, err := paper.RunNNServe(*nnRequests, *nnBatch, ob)
			if err != nil {
				return err
			}
			emit(res, func() {
				fmt.Println()
				fmt.Printf("N1 serving — %d LeNet requests through the Queue, solo vs batched (B=%d):\n", res.Requests, res.Batch)
				fmt.Printf("  %-7s %-5s | %12s %12s | %9s %9s | %8s %10s\n",
					"devices", "batch", "model inf/s", "wall inf/s", "model", "wall", "launches", "compile%")
				allIdentical := true
				for _, pt := range res.Points {
					fmt.Printf("  %-7d %-5d | %12.1f %12.1f | %7.0fms %7.0fms | %8d %9.1f%%\n",
						pt.Devices, pt.Batch, pt.ModelInfPerSec, pt.WallInfPerSec,
						pt.ModelMS, pt.WallMS, pt.Launches, pt.CompileShareP)
					allIdentical = allIdentical && pt.Validated
				}
				fmt.Printf("  sweep outputs bit-identical to solo: %v\n", allIdentical)
				fmt.Printf("  continuous batching (int8 serving, %d requests, bucket %d): solo %.0fµs vs coalesced %.0fµs in %d launches — %.2fx; bit-identical: %v\n",
					16, 8, res.CBSoloUS, res.CBBatchedUS, res.CBLaunches, res.BatchModelSpeedupX, res.ContinuousBatchValidated)
			})
			return nil
		}},
		{"compile-cache", "N1 cold start: 4-device pool compile time, cold vs disk-warm compile cache", func(emit emitFunc) error {
			res, err := paper.RunCompileCache()
			if err != nil {
				return err
			}
			emit(res, func() {
				fmt.Println()
				fmt.Printf("N1 cold start — compile cache (4-device pool, float LeNet): cold %.0fµs vs warm-from-disk %.0fµs — %.0fx (%d hits)\n",
					res.ColdCompileUS, res.WarmCompileUS, res.CompileCacheSpeedupX, res.CompileCacheHits)
			})
			return nil
		}},
		{"chaos", "R1 fault-tolerant serving under a seeded fault schedule", func(emit emitFunc) error {
			res, err := paper.RunChaos(*chaosJobs, *serveN, *chaosSeed, *chaosDevices, ob)
			if err != nil {
				return err
			}
			emit(res, func() {
				fmt.Println()
				fmt.Printf("R1 — fault-tolerant serving (%d requests over %d devices, fault seed %d):\n",
					res.Jobs, res.Devices, res.Seed)
				fmt.Printf("  injected: %d context losses, %d corrupted readbacks, %d transient OOMs, %d stalls\n",
					res.Injected.ContextLost, res.Injected.CorruptReadbacks, res.Injected.OutOfMemory, res.Injected.Stalls)
				fmt.Printf("  handled:  %d retries, %d device faults, %d device replacements, worst request took %d attempts\n",
					res.Retries, res.Faults, res.Reopens, res.MaxAttempts)
				fmt.Printf("  zero lost jobs: %v (failed: %d); bit-identical to fault-free reference: %v\n",
					res.ZeroLost, res.FailedJobs, res.BitIdentical)
				fmt.Printf("  recovered to full capacity: %v (%d/%d devices healthy); wall %.0fms\n",
					res.Recovered, res.Healthy, res.Devices, res.WallMS)
			})
			return nil
		}},
		{"codec-overhead", "A1 pack/unpack share of kernel cycles", func(emit emitFunc) error {
			res, err := paper.RunCodecOverhead(1 << 12)
			if err != nil {
				return err
			}
			emit(res, func() {
				fmt.Println()
				fmt.Println("A1 — codec overhead on the integer sum kernel:")
				fmt.Printf("  encode-only kernel: %6.1f modeled cycles/element\n", res.EncodeOnlyCycles)
				fmt.Printf("  full sum kernel:    %6.1f modeled cycles/element\n", res.FullSumCycles)
				fmt.Printf("  pack/unpack share:  %6.0f%% (paper: 'the extra burden of packing and unpacking')\n",
					res.OverheadFraction*100)
			})
			return nil
		}},
		{"raster", "W1 tiled-rasterizer wall-clock throughput across worker counts", func(emit emitFunc) error {
			res, err := paper.RunRaster(*rasterN, *rasterReps)
			if err != nil {
				return err
			}
			emit(res, func() {
				fmt.Println()
				fmt.Printf("W1 — tiled-rasterizer wall-clock throughput (%d fragments/draw, fastest of %d runs, %d effective CPUs):\n",
					res.Fragments, *rasterReps, res.EffectiveCPUs)
				fmt.Printf("  %-7s | %10s | %14s | %8s | %s\n", "workers", "wall", "wall frags/s", "speedup", "bit-identical")
				for _, pt := range res.Points {
					fmt.Printf("  %-7d | %8.1fms | %14.0f | %7.2fx | %v\n",
						pt.Workers, pt.WallMS, pt.FragsPerSec, pt.SpeedupX, pt.BitIdentical)
				}
				if res.WallGateSkipped {
					fmt.Printf("  note: single-CPU execution — wall speedup not asserted\n")
				}
			})
			return nil
		}},
	}

	selected := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		if name = strings.TrimSpace(name); name != "" {
			selected[name] = true
		}
	}
	if selected["list"] {
		fmt.Println("experiments (-exp name[,name...] | all):")
		for _, e := range experiments {
			fmt.Printf("  %-14s %s\n", e.name, e.desc)
		}
		fmt.Printf("  %-14s run every experiment\n", "all")
		return
	}
	if len(selected) == 0 {
		fmt.Fprintln(os.Stderr, "paperbench: -exp selects no experiment (use -exp list)")
		os.Exit(2)
	}
	known := map[string]bool{"all": true}
	for _, e := range experiments {
		known[e.name] = true
	}
	for name := range selected {
		if !known[name] {
			fmt.Fprintf(os.Stderr, "paperbench: unknown experiment %q (use -exp list)\n", name)
			os.Exit(2)
		}
	}
	for _, e := range experiments {
		if !selected["all"] && !selected[e.name] {
			continue
		}
		emit := func(result interface{}, table func()) {
			if *jsonOut {
				report[e.name] = result
			} else {
				table()
			}
		}
		if err := e.run(emit); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: encoding JSON: %v\n", err)
			os.Exit(1)
		}
	}

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		if err := ob.Tracer.WriteChromeTrace(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "paperbench: wrote %d trace events to %s (load in Perfetto or chrome://tracing)\n",
			ob.Tracer.Len(), *traceFile)
	}
	if *metricsOut {
		// Under -json, stdout carries the machine-readable report; the
		// human-readable metrics dump moves to stderr.
		out := os.Stdout
		if *jsonOut {
			out = os.Stderr
		}
		fmt.Fprintln(out)
		fmt.Fprintln(out, "# metrics (Prometheus text exposition; obs.Handler serves the same over HTTP)")
		ob.Metrics.WritePrometheus(out)
	}
}
