package paper

// W1 — the tiled-rasterizer wall-clock experiment. The repo's primary
// metrics are modeled vc4 time, which is deterministic but blind to how
// fast the simulator itself runs. This experiment measures real host
// throughput of the fragment stage (shaded fragments per wall-clock
// second) across rasterizer worker counts, and proves the parallel tile
// path bit-identical to the sequential one on a compute kernel heavy
// enough to keep every tile busy.

import (
	"fmt"
	"runtime"
	"time"

	"glescompute/internal/codec"
	"glescompute/internal/core"
)

// rasterSource is a deliberately ALU-heavy element-wise kernel: per
// fragment it runs a 16-iteration feedback loop through the multiply-add
// and fract paths the VM specializes, so per-tile work dominates the
// per-draw fixed costs being amortized.
const rasterSource = `
float gc_kernel(float idx) {
	float x = gc_a(idx);
	float acc = 0.0;
	for (int i = 0; i < 16; i++) {
		acc = acc + fract(x * 0.1237 + acc * 0.5181);
		x = x * 1.0001 + 0.0003;
	}
	return acc;
}
`

// RasterPoint is one worker count's measurement.
type RasterPoint struct {
	Workers      int     `json:"workers"`
	WallMS       float64 `json:"elapsed_ms"`
	FragsPerSec  float64 `json:"frags_per_s"`
	SpeedupX     float64 `json:"speedup_vs_seq_x"` // vs the workers=1 point
	BitIdentical bool    `json:"bit_identical"`

	frags uint64 // fragments shaded per draw (same at every worker count)
}

// RasterResult is the outcome of the tiled-rasterizer sweep.
type RasterResult struct {
	N             int           `json:"n"`
	Fragments     uint64        `json:"fragments_per_draw"`
	EffectiveCPUs int           `json:"effective_cpus"`
	Points        []RasterPoint `json:"points"`
	// WallFragsPerSec and WallFragsPerSecSeq are the 4-worker and
	// sequential fragment throughputs. Both keys are enumerated in
	// benchgate's wall-gated set (higher is better, -wall-margin budget):
	// fastest-of-reps on a warm device is stable enough to gate with a
	// noise margin, unlike the single-shot wall figures elsewhere.
	WallFragsPerSec    float64 `json:"wall_frags_per_s"`
	WallFragsPerSecSeq float64 `json:"wall_frags_per_s_seq"`
	// SpeedupX is the 4-worker wall speedup over sequential. Its key is
	// deliberately NOT `speedup_x` — benchgate gates that name exactly,
	// with the tight modeled budget — because a ratio of two noisy
	// measurements is noisier than either, and the underlying throughputs
	// above are already wall-gated.
	SpeedupX  float64 `json:"speedup_vs_seq_x"`
	Validated bool    `json:"raster_validated"`
	// WallGateSkipped marks a single-CPU run: the parallel points cannot
	// beat sequential without a second core, so the wall throughputs are
	// reported but meaningless as a regression signal. benchgate sees the
	// flag and skips this result's wall-gated keys instead of failing
	// them (a CI runner downgraded to one core looks like a 4x raster
	// regression otherwise).
	WallGateSkipped bool `json:"wall_gate_skipped,omitempty"`
}

// RunRaster sweeps rasterizer worker counts {1, 2, 4, 8} over one draw of
// n fragments, asserting bit-identical output at every count. reps timed
// runs are taken per point (after one warmup) and the fastest is kept —
// the standard defense against scheduler noise on shared hosts.
func RunRaster(n, reps int) (RasterResult, error) {
	if reps < 1 {
		reps = 1
	}
	res := RasterResult{N: n, EffectiveCPUs: effectiveCPUs()}
	res.WallGateSkipped = res.EffectiveCPUs == 1

	input := make([]float32, n)
	for i := range input {
		input[i] = float32(i%977) * 0.013
	}

	var ref []float32
	res.Validated = true
	for _, workers := range []int{1, 2, 4, 8} {
		dev, err := openDevice(core.Config{RasterWorkers: workers})
		if err != nil {
			return res, err
		}
		point, out, err := rasterPoint(dev, input, reps)
		dev.Close()
		if err != nil {
			return res, err
		}
		point.Workers = workers
		if workers == 1 {
			ref = out
			res.Fragments = point.frags
			res.WallFragsPerSecSeq = point.FragsPerSec
			point.BitIdentical = true
		} else {
			point.BitIdentical = bitIdentical(ref, out)
			if !point.BitIdentical {
				res.Validated = false
			}
		}
		point.SpeedupX = point.FragsPerSec / res.WallFragsPerSecSeq
		if workers == 4 {
			res.WallFragsPerSec = point.FragsPerSec
			res.SpeedupX = point.SpeedupX
		}
		res.Points = append(res.Points, point)
	}
	if !res.Validated {
		return res, fmt.Errorf("paper: tiled rasterizer output diverges from sequential")
	}
	// The wall-clock speedup bar follows the S1 pattern: parallel
	// rasterization can only beat sequential when the host actually
	// grants multiple CPUs, and quick smoke runs (small n) are
	// noise-dominated, so the bar applies only at full scale.
	bar := 0.0
	switch {
	case n < 1<<16:
	case res.EffectiveCPUs >= 4:
		bar = 2.0
	case res.EffectiveCPUs >= 2:
		bar = 1.15
	}
	if res.SpeedupX < bar {
		return res, fmt.Errorf("paper: tiled rasterizer wall speedup %.2fx at 4 workers, want >= %.2fx (effective CPUs: %d)",
			res.SpeedupX, bar, res.EffectiveCPUs)
	}
	return res, nil
}

// effectiveCPUs is min(NumCPU, GOMAXPROCS): the parallelism a wall-clock
// bar can count on. Either at 1 means no two goroutines ever overlap.
func effectiveCPUs() int {
	return min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

func bitIdentical(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rasterPoint measures one device configuration: warmup, then the fastest
// of reps timed runs.
func rasterPoint(dev *core.Device, input []float32, reps int) (RasterPoint, []float32, error) {
	var p RasterPoint
	n := len(input)
	ba, err := dev.NewBuffer(codec.Float32, n)
	if err != nil {
		return p, nil, err
	}
	bo, err := dev.NewBuffer(codec.Float32, n)
	if err != nil {
		return p, nil, err
	}
	if err := ba.WriteFloat32(input); err != nil {
		return p, nil, err
	}
	k, err := dev.BuildKernel(core.KernelSpec{
		Name:    "rasterload",
		Inputs:  []core.Param{{Name: "a", Type: codec.Float32}},
		Outputs: []core.OutputSpec{{Name: "out", Type: codec.Float32}},
		Source:  rasterSource,
	})
	if err != nil {
		return p, nil, err
	}
	stats, err := k.Run1(bo, []*core.Buffer{ba}, nil) // warmup
	if err != nil {
		return p, nil, err
	}
	p.frags = stats.Draw.FragmentsShaded
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if _, err := k.Run1(bo, []*core.Buffer{ba}, nil); err != nil {
			return p, nil, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	p.WallMS = float64(best.Nanoseconds()) / 1e6
	p.FragsPerSec = float64(p.frags) / best.Seconds()
	out, err := bo.ReadFloat32()
	if err != nil {
		return p, nil, err
	}
	return p, out, nil
}
