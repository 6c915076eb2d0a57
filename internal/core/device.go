// Package core implements the paper's contribution: a general-purpose
// compute runtime on top of a bare OpenGL ES 2.0 context. It packages the
// eight workarounds of the paper's Section III —
//
//	#1 pass-through vertex shader (no fixed-function fallback)
//	#2 live-texel cover built from triangles (no quad primitive)
//	#3 linear arrays laid out in 2D textures (no 1D textures)
//	#4 half-texel-centred normalized addressing (no texel coordinates)
//	#5 input numeric transformations (no float textures)       — §IV
//	#6 output numeric transformations (no float framebuffers)  — §IV
//	#7 kernel chaining through FBO render-to-texture + ReadPixels
//	#8 multi-output kernels split into one shader pass per output
//
// — behind a Device/Buffer/Kernel API a CUDA/OpenCL programmer would
// recognize. Multi-pass workloads chain device-resident through Pipeline
// (pipeline.go): output textures feed the next pass's sampler directly,
// with pooled ping-pong intermediates and automatic resolution of the
// render-into-sampled-texture hazard (DESIGN.md §6a).
package core

import (
	"errors"
	"fmt"

	"glescompute/internal/gles"
	"glescompute/internal/layout"
	"glescompute/internal/shader"
	"glescompute/internal/vc4"
)

// ErrClosed is returned (wrapped) by operations on a closed Device, Kernel
// or Pipeline. Long-running services race queue shutdown against in-flight
// work; a clean error lets them treat that race as a normal outcome
// instead of a crash.
var ErrClosed = errors.New("device is closed")

// ErrDeviceLost is wrapped by operations that failed because the GL
// context died — context loss (GL_CONTEXT_LOST), detected readback
// corruption, or a panic on the device goroutine. The device cannot
// recover; schedulers quarantine it and replace it with a fresh one.
var ErrDeviceLost = errors.New("device lost")

// ErrOutOfMemory is wrapped by operations that failed with
// GL_OUT_OF_MEMORY. On low-end mobile GPUs allocation failure is often
// transient (memory pressure from other processes), so schedulers may
// retry the work without replacing the device.
var ErrOutOfMemory = errors.New("GL out of memory")

// Config configures a compute device.
type Config struct {
	// MaxGridWidth bounds texture width used for buffer layout; 0 means
	// the device maximum.
	MaxGridWidth int
	// SFUMantissaBits models the GPU special-function-unit precision;
	// 0 selects the VideoCore IV default (16 bits), negative selects
	// exact IEEE behaviour.
	SFUMantissaBits int
	// FloorConversion selects the paper's eq. (2) floor rule for
	// framebuffer conversion instead of the GL round-to-nearest rule.
	FloorConversion bool
	// RasterWorkers is the number of goroutines that shade each draw.
	// 0 means automatic: the drawing goroutine plus whatever helpers are
	// free in one process-wide budget of GOMAXPROCS−1, shared by every
	// device in the process. N ≥ 1 means exactly N (capped by the draw's
	// tile count), and 1 forces the sequential rasterizer. Output is
	// bit-identical at every worker count (tiles are disjoint framebuffer
	// regions; see DESIGN.md §6h). Negative values are rejected at Open.
	RasterWorkers int
	// StrictAppendixA enforces GLSL ES Appendix A loop restrictions.
	StrictAppendixA bool

	// CompileCache shares compiled program binaries across devices (and,
	// with a disk-backed cache, across processes): builds hitting the
	// cache restore through the program-binary path instead of compiling.
	// nil falls back to the process-wide cache named by the
	// GLESCOMPUTE_COMPILE_CACHE environment variable, or no cache when
	// that is unset. Ignored on OpenReference devices (binaries carry
	// bytecode only).
	CompileCache *CompileCache
}

// Timeline is the modeled wall-clock breakdown of everything executed
// since the last ResetTimeline (see vc4.Timeline).
type Timeline = vc4.Timeline

// Device is a simulated low-end mobile GPU opened for compute.
type Device struct {
	ctx *gles.Context
	gpu *vc4.Model
	cfg Config

	copyProg   uint32 // lazily built pass-through copy program (challenge #7)
	copyShader [2]uint32

	// reduceKernels caches compiled fold kernels by op+elem so every
	// pipeline on the device shares one program per reduction operator.
	reduceKernels map[string]*Kernel

	// kernelCache holds kernels compiled through BuildKernelCached, keyed
	// by KernelSpec.CacheKey — the scheduler's per-device compile-once
	// cache. Owned (and closed) by the device.
	kernelCache map[string]*Kernel

	// ccache is the resolved persistent compile cache (Config.CompileCache
	// or the environment default); nil when caching is off.
	ccache *CompileCache

	closed   bool
	lost     bool // a CONTEXT_LOST error was observed; the device is dead
	leakHook func(gles.ObjectCounts)
}

// Open creates a compute device over a fresh simulated ES 2.0 context.
func Open(cfg Config) (*Device, error) { return open(cfg, false) }

// OpenReference opens a device whose shaders run on the reference AST
// interpreter instead of the bytecode VM. Results and shader.Stats are
// bit-identical to Open's; it exists as the oracle of the executor
// differential tests. Reference devices never use a compile cache
// (program binaries carry bytecode only).
func OpenReference(cfg Config) (*Device, error) { return open(cfg, true) }

func open(cfg Config, interp bool) (*Device, error) {
	if cfg.RasterWorkers < 0 {
		return nil, fmt.Errorf("core: Config.RasterWorkers %d: must be >= 0", cfg.RasterWorkers)
	}
	var cc *CompileCache
	if !interp {
		if cc = cfg.CompileCache; cc == nil {
			var err error
			if cc, err = envCompileCache(); err != nil {
				return nil, err
			}
		}
	}
	sfu := shader.DefaultSFU
	if cfg.SFUMantissaBits > 0 {
		sfu = shader.SFUConfig{MantissaBits: cfg.SFUMantissaBits}
	} else if cfg.SFUMantissaBits < 0 {
		sfu = shader.ExactSFU
	}
	conv := gles.ConvertRound
	if cfg.FloorConversion {
		conv = gles.ConvertFloor
	}
	ctx := gles.NewContext(gles.Config{
		Width:           4,
		Height:          4,
		SFU:             sfu,
		Conv:            conv,
		Workers:         cfg.RasterWorkers,
		StrictAppendixA: cfg.StrictAppendixA,
		UseInterpreter:  interp,
	})
	d := &Device{ctx: ctx, gpu: vc4.DefaultModel(), cfg: cfg, ccache: cc}
	if d.cfg.MaxGridWidth <= 0 || d.cfg.MaxGridWidth > ctx.Caps().MaxTextureSize {
		d.cfg.MaxGridWidth = ctx.Caps().MaxTextureSize
	}
	return d, nil
}

// liveCover builds the geometry a pass draws over a W×H output grid
// whose first live texels (row-major) hold data — challenge #2's
// screen-covering quad narrowed to the live texels, so no fragment runs
// for the grid's dead tail. It is one rectangle over the full rows
// [0, live/W) and one over the first live%W texels of the next row, each
// two triangles of interleaved float32 (x, y, u, v) vertices; a fully
// live grid gets the classic full-screen quad. Rectangle edges lie on
// texel boundaries, so the rasterizer's top-left rule shades every live
// texel exactly once.
func liveCover(g layout.Grid, live int) []byte {
	var verts []float32
	rect := func(x0, y0, x1, y1 int) {
		for _, c := range [6][2]int{{x0, y0}, {x1, y0}, {x1, y1}, {x0, y0}, {x1, y1}, {x0, y1}} {
			u := float64(c[0]) / float64(g.Width)
			v := float64(c[1]) / float64(g.Height)
			verts = append(verts, float32(2*u-1), float32(2*v-1), float32(u), float32(v))
		}
	}
	rows, rem := live/g.Width, live%g.Width
	if rows > 0 {
		rect(0, 0, g.Width, rows)
	}
	if rem > 0 {
		rect(0, rows, rem, rows+1)
	}
	return f32bytes(verts)
}

// checkOpen returns a wrapped ErrClosed when the device has been closed.
func (d *Device) checkOpen(op string) error {
	if d.closed {
		return fmt.Errorf("core: %s: %w", op, ErrClosed)
	}
	return nil
}

// Close releases every device-owned simulator object (cached kernels,
// reduce kernels, the copy program) and marks the device closed: further
// operations return ErrClosed. Objects still live afterwards — buffers
// never freed, kernels never closed — are user leaks; they are reported
// to the hook installed with SetLeakHook, so long-running queue processes
// can prove they do not accumulate simulator objects. Close is idempotent.
func (d *Device) Close() error {
	if d.closed {
		return nil
	}
	for _, k := range d.reduceKernels {
		k.Close()
	}
	d.reduceKernels = nil
	for _, k := range d.kernelCache {
		k.Close()
	}
	d.kernelCache = nil
	if d.copyProg != 0 {
		d.ctx.DeleteProgram(d.copyProg)
		d.ctx.DeleteShader(d.copyShader[0])
		d.ctx.DeleteShader(d.copyShader[1])
		d.copyProg = 0
	}
	live := d.ctx.ObjectCounts()
	d.closed = true
	if live.Total() > 0 && d.leakHook != nil {
		d.leakHook(live)
	}
	return nil
}

// SetLeakHook installs a callback Close invokes with the census of
// objects still live at shutdown (only when that census is non-empty).
// Pass nil to remove the hook.
func (d *Device) SetLeakHook(fn func(gles.ObjectCounts)) { d.leakHook = fn }

// LiveObjects reports the simulator objects currently live on the
// device's context.
func (d *Device) LiveObjects() gles.ObjectCounts { return d.ctx.ObjectCounts() }

// GL exposes the underlying ES 2.0 context for advanced use and testing.
func (d *Device) GL() *gles.Context { return d.ctx }

// CompileCache returns the device's resolved persistent compile cache,
// or nil when caching is off.
func (d *Device) CompileCache() *CompileCache { return d.ccache }

// GPUModel exposes the timing model.
func (d *Device) GPUModel() *vc4.Model { return d.gpu }

// Caps returns the device limits relevant to compute.
func (d *Device) Caps() gles.Caps { return d.ctx.Caps() }

// MaxGridWidth returns the effective texture-width bound buffer layouts
// use on this device (Config.MaxGridWidth clamped to the context limit).
// The scheduler packs batch textures against this, not the raw caps, so
// batched and solo execution accept exactly the same jobs.
func (d *Device) MaxGridWidth() int { return d.cfg.MaxGridWidth }

// PrecisionInfo reports the shader precision formats, the query the paper
// uses (§IV-E) to establish that GPU floats match IEEE 754 bit counts.
func (d *Device) PrecisionInfo() (flt, intp gles.PrecisionFormat) {
	flt = d.ctx.GetShaderPrecisionFormat(gles.FRAGMENT_SHADER, gles.HIGH_FLOAT)
	intp = d.ctx.GetShaderPrecisionFormat(gles.FRAGMENT_SHADER, gles.HIGH_INT)
	return
}

// ResetTimeline clears the accumulated modeled-time statistics.
func (d *Device) ResetTimeline() {
	d.ctx.ResetStats()
}

// Timeline returns the modeled wall-clock breakdown since the last reset.
func (d *Device) Timeline() Timeline {
	draws, tr := d.ctx.Draws(), d.ctx.Transfers()
	return d.gpu.Price(&draws, &tr)
}

// timeSince prices the work counted since the snapshot (draws0, tr0) of
// the context's counters. The counters' difference is priced once, so
// the result does not depend on what the device ran before the snapshot.
func (d *Device) timeSince(draws0 gles.DrawStats, tr0 gles.TransferStats) Timeline {
	draws, tr := d.ctx.Draws(), d.ctx.Transfers()
	draws.Sub(&draws0)
	tr.Sub(&tr0)
	return d.gpu.Price(&draws, &tr)
}

// checkGL converts pending GL errors into a Go error. It drains the
// context completely — a multi-step operation can queue errors behind the
// first — so no latent error is left to surface against an innocent later
// call, and classifies the first (oldest) error onto the matching
// sentinel: CONTEXT_LOST → ErrDeviceLost, OUT_OF_MEMORY → ErrOutOfMemory.
func (d *Device) checkGL(op string) error {
	e := d.ctx.GetError()
	if e == gles.NO_ERROR {
		return nil
	}
	detail := d.ctx.LastErrorDetail()
	for d.ctx.GetError() != gles.NO_ERROR {
	}
	switch e {
	case gles.CONTEXT_LOST:
		d.lost = true
		return fmt.Errorf("core: %s: GL error 0x%04x: %s: %w", op, e, detail, ErrDeviceLost)
	case gles.OUT_OF_MEMORY:
		return fmt.Errorf("core: %s: GL error 0x%04x: %s: %w", op, e, detail, ErrOutOfMemory)
	}
	return fmt.Errorf("core: %s: GL error 0x%04x: %s", op, e, detail)
}

// Lost reports whether the device has observed a context-loss error. A
// lost device never works again; close it and open a replacement.
func (d *Device) Lost() bool { return d.lost }
