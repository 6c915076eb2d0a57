// Package vc4 models the execution time of GPGPU workloads on a Broadcom
// VideoCore IV class GPU — the device in the paper's Raspberry Pi testbed.
// The simulator in internal/gles counts the scalar operations a kernel
// executes; Model.Price converts those counts, plus host↔device transfer
// and shader-compilation overheads, into modeled wall-clock time.
//
// The machine model: 12 QPUs, each a 16-way virtual SIMD processor
// (4 physical lanes × 4 clock phases) at 250 MHz, with an add and a
// multiply pipe that can dual-issue. Peak arithmetic throughput is
// 12 × 4 × 2 × 250 MHz = 24 GFLOP/s — the "24 GFlops" the paper quotes.
// Special functions (exp2/log2/rcp/rsqrt) go through the shared SFU;
// texture fetches go through the TMUs; memory moves through the VPM DMA
// engine. Costs below are per scalar lane-operation in QPU cycles and are
// drawn from the public VideoCore IV architecture reference.
package vc4

import (
	"time"

	"glescompute/internal/gles"
	"glescompute/internal/shader"
)

// Model holds the device parameters. The zero value is unusable; use
// DefaultModel.
type Model struct {
	QPUs         int     // parallel QPU processors
	LanesPerQPU  int     // physical SIMD lanes retiring per cycle
	ClockHz      float64 // QPU clock
	DualIssueEff float64 // fraction of ALU ops paired into one instruction

	// Per scalar-op cycle costs (lane-cycles).
	CycAdd    float64
	CycMul    float64
	CycDiv    float64 // SFU rcp + Newton-Raphson refinement + multiply
	CycCmp    float64
	CycLogic  float64
	CycMov    float64
	CycSelect float64
	CycSFU    float64 // exp2/log2/rsqrt issue + latency share
	CycTex    float64 // TMU fetch, partially hidden by threading
	CycBranch float64 // diverging branch penalty across the SIMD group
	CycCall   float64

	// Per-invocation overhead: varying interpolation setup, tile walker,
	// scoreboard — cycles per fragment or vertex.
	CycPerInvocation float64

	// Memory-system parameters.
	UploadBytesPerSec   float64 // texture upload bandwidth (host→GPU)
	ReadbackBytesPerSec float64 // glReadPixels effective bandwidth
	UploadCallOverhead  time.Duration
	ReadbackOverhead    time.Duration // per-call driver/pipeline flush cost

	// Driver costs the paper's wall-clock timings include.
	CompileTimePerShader time.Duration
	LinkTimePerProgram   time.Duration
	// BinaryLoadPerProgram prices restoring a pre-compiled program through
	// glProgramBinaryOES: a blob read plus relocation/table rebuild, no
	// front-end and no code generation. Measured loads on VideoCore-class
	// drivers are a few hundred microseconds against ~10 ms for a two-stage
	// source compile+link.
	BinaryLoadPerProgram time.Duration
	DrawCallOverhead     time.Duration
}

// DefaultModel returns parameters for the Raspberry Pi's VideoCore IV
// (BCM2835 generation, as in the paper's testbed).
func DefaultModel() *Model {
	return &Model{
		QPUs:         12,
		LanesPerQPU:  4,
		ClockHz:      250e6,
		DualIssueEff: 0.40, // compiled GPGPU code pairs ~40% of ALU ops

		// The interpreter counts raw AST operations; these per-op costs
		// fold in what the Broadcom shader compiler does to them. Moves
		// nearly vanish under register coalescing; calls are always fully
		// inlined (the QPU has no call stack); divisions by uniforms and
		// constants become multiplies by hoisted reciprocals; short
		// branches become predicated instructions.
		CycAdd:    1,
		CycMul:    1,
		CycDiv:    2.5,
		CycCmp:    1,
		CycLogic:  1,
		CycMov:    0.1,
		CycSelect: 1,
		CycSFU:    8,   // SFU issue + r4 result move + pipeline bubble
		CycTex:    3.5, // 8-20 cycle latency, largely hidden by co-issue
		CycBranch: 1,
		CycCall:   0,

		CycPerInvocation: 10,

		// The VideoCore owns the SDRAM controller and the 128 KB L2 on the
		// BCM2835; driver texture uploads move through a DMA-assisted path
		// while ReadPixels detiles through the CPU.
		UploadBytesPerSec:   900e6,
		ReadbackBytesPerSec: 400e6,
		UploadCallOverhead:  60 * time.Microsecond,
		ReadbackOverhead:    300 * time.Microsecond,

		CompileTimePerShader: 4 * time.Millisecond,
		LinkTimePerProgram:   2 * time.Millisecond,
		BinaryLoadPerProgram: 200 * time.Microsecond,
		DrawCallOverhead:     120 * time.Microsecond,
	}
}

// laneCycles converts shader statistics into total lane-cycles.
func (m *Model) laneCycles(s *shader.Stats) float64 {
	alu := float64(s.Add)*m.CycAdd +
		float64(s.Mul)*m.CycMul +
		float64(s.Cmp)*m.CycCmp +
		float64(s.Logic)*m.CycLogic +
		float64(s.Mov)*m.CycMov +
		float64(s.Select)*m.CycSelect
	// Dual-issue folds a fraction of ALU ops into shared instructions.
	alu *= 1 - m.DualIssueEff/2
	other := float64(s.Div)*m.CycDiv +
		float64(s.SFU)*m.CycSFU +
		float64(s.Tex)*m.CycTex +
		float64(s.Branch)*m.CycBranch +
		float64(s.Call)*m.CycCall
	inv := float64(s.Invocations) * m.CycPerInvocation
	return alu + other + inv
}

// LaneCyclesPerInvocation returns the mean lane-cycles one invocation of
// the counted shader work costs: A1's per-fragment codec figure.
func (m *Model) LaneCyclesPerInvocation(s *shader.Stats) float64 {
	return m.laneCycles(s) / float64(s.Invocations)
}

// shaderTime models the execution time of the counted shader work,
// spread across all QPU lanes.
func (m *Model) shaderTime(s *shader.Stats) time.Duration {
	lanes := float64(m.QPUs * m.LanesPerQPU)
	seconds := m.laneCycles(s) / (lanes * m.ClockHz)
	return time.Duration(seconds * float64(time.Second))
}

// bytesTime models moving n bytes at bytesPerSec.
func bytesTime(n uint64, bytesPerSec float64) time.Duration {
	return time.Duration(float64(n) / bytesPerSec * float64(time.Second))
}

// Timeline is the modeled wall-clock breakdown of a body of GPGPU work,
// mirroring the paper's measurement methodology ("application wall
// times, including time spent in data transfers and kernel
// compilations").
type Timeline struct {
	Compile  time.Duration
	Upload   time.Duration
	Execute  time.Duration
	Readback time.Duration
}

// Total returns the modeled wall time.
func (t Timeline) Total() time.Duration {
	return t.Compile + t.Upload + t.Execute + t.Readback
}

// Add returns the componentwise sum t + o. The scheduler uses it to
// accumulate per-launch timeline deltas into per-device busy time.
func (t Timeline) Add(o Timeline) Timeline {
	return Timeline{
		Compile:  t.Compile + o.Compile,
		Upload:   t.Upload + o.Upload,
		Execute:  t.Execute + o.Execute,
		Readback: t.Readback + o.Readback,
	}
}

// Price is the one pricing path: it turns counted draw and transfer work
// into modeled time. Compile covers shader compiles, program links and
// program-binary loads; Upload and Readback are per-byte bandwidth plus
// per-call overhead; Execute is the vertex and fragment work spread
// across all QPU lanes plus a fixed submission overhead per draw call.
func (m *Model) Price(d *gles.DrawStats, tr *gles.TransferStats) Timeline {
	return Timeline{
		Compile: time.Duration(tr.CompileCount)*m.CompileTimePerShader +
			time.Duration(tr.LinkCount)*m.LinkTimePerProgram +
			time.Duration(tr.BinaryLoadCount)*m.BinaryLoadPerProgram,
		Upload: bytesTime(tr.TexUploadBytes, m.UploadBytesPerSec) +
			time.Duration(tr.TexUploadCalls)*m.UploadCallOverhead,
		Execute: m.shaderTime(&d.VertexStats) + m.shaderTime(&d.FragmentStats) +
			time.Duration(d.DrawCalls)*m.DrawCallOverhead,
		Readback: bytesTime(tr.ReadPixelsBytes, m.ReadbackBytesPerSec) +
			time.Duration(tr.ReadPixelsCalls)*m.ReadbackOverhead,
	}
}

// PeakGFLOPS reports the theoretical peak of the modeled device in
// GFLOP/s (sanity anchor: the paper quotes 24 for the VideoCore IV).
func (m *Model) PeakGFLOPS() float64 {
	return float64(m.QPUs*m.LanesPerQPU) * 2 * m.ClockHz / 1e9
}
