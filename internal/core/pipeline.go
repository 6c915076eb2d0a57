package core

import (
	"fmt"
	"sync"

	"glescompute/internal/codec"
	"glescompute/internal/gles"
	"glescompute/internal/layout"
)

// Ref names a data slot inside a pipeline: a declared external input or
// the output of a stage. Refs are only meaningful on the pipeline that
// issued them.
type Ref int

// pipeSlot is one logical array flowing through the pipeline.
type pipeSlot struct {
	elem codec.ElemType
	n    int

	inputIdx  int  // >=0: filled from ins[inputIdx] at Run
	outputIdx int  // >=0: rendered into outs[outputIdx] at Run
	lastUse   int  // index of the last exec stage reading this slot (-1: never read)
	fusedAway bool // eliminated by fusion: never materialized as a texture
}

// pipeStage is one kernel invocation inside the pipeline.
type pipeStage struct {
	kernel   *Kernel
	ins      []Ref
	outs     []Ref
	uniforms map[string]float32 // fixed at build; override Run uniforms
	label    string             // stage name for fusion/stats reporting
	inline   []int              // input indices hinted for inline-producer fusion
}

// Pipeline chains kernels entirely on the device: each stage's output
// texture feeds the next stage's sampler directly, with no ReadPixels or
// codec round-trip between passes (the multi-pass regime of the paper's
// challenge #7, made safe and automatic). Intermediates come from an
// internal pool of recycled ping-pong buffers; the output-aliases-input
// hazard — rendering into a texture a stage is sampling, undefined in GL
// — is resolved automatically, by construction for pooled intermediates
// (a buffer is never handed out while still bound as a live input) and
// with a device-side copy when the render target is a user-owned buffer.
//
// Build a pipeline with Input/Stage/Reduce/Output, then execute it with
// Run as many times as needed. Builder errors are deferred: they surface
// on the first Run (or via Err), so construction code needs no per-call
// error handling.
type Pipeline struct {
	dev     *Device
	slots   []pipeSlot
	stages  []pipeStage
	inputs  []Ref
	outputs []Ref
	pool    *BufferPool

	fusion bool  // merge eligible stage chains into single passes
	plan   *plan // execution schedule, frozen by the first Run

	err    error // first builder error, surfaced at Run
	mu     sync.Mutex
	closed bool
}

// NewPipeline creates an empty pipeline on the device with automatic
// kernel fusion on; SetFusion(false) selects the unfused reference path.
func (d *Device) NewPipeline() *Pipeline {
	return &Pipeline{dev: d, pool: NewBufferPool(d), fusion: true}
}

// Err returns the first builder error, if any.
func (p *Pipeline) Err() error { return p.err }

// SetFusion enables or disables the automatic kernel-fusion planner for
// this pipeline. It must be called before the first Run (the plan is
// frozen there); calling it later records a builder error.
func (p *Pipeline) SetFusion(on bool) {
	if p.plan != nil {
		p.fail("SetFusion after the pipeline compiled (call it before the first Run)")
		return
	}
	p.fusion = on
}

// Label names the most recently added stage for fusion and stats
// reporting ("conv1", "softmax/lse"); unlabeled stages report their
// kernel's spec name. Fused passes join their member labels with "+".
func (p *Pipeline) Label(name string) {
	if p.err != nil || len(p.stages) == 0 {
		return
	}
	p.stages[len(p.stages)-1].label = name
}

// InlineInput hints the planner that input i of the most recently added
// stage may be fused by RECOMPUTATION: instead of materializing the
// producing stage's output texture, every gc_<input>(j) fetch evaluates
// the producer's kernel at j inline. Unlike element-wise fusion this
// imposes no length or access-pattern restriction on the consumer — the
// caller asserts the trade is profitable, i.e. the consumer fetches each
// producer element at most about once (a stride-2 2×2 max-pool over a
// GEMM, a tiny per-row statistic), because an amplifying access pattern
// recomputes the producer per fetch. All other safety rules still apply
// (sole consumer, not a pipeline output, producer's body declared
// inlinable via FusableEpilogue/ElementWise, no raster-state reads);
// results are bit-identical for int32 either way, and the hint is
// ignored whenever a rule fails.
func (p *Pipeline) InlineInput(i int) {
	if p.err != nil || len(p.stages) == 0 {
		return
	}
	st := &p.stages[len(p.stages)-1]
	if i < 0 || i >= len(st.ins) {
		p.fail("InlineInput: stage %q has no input %d", st.label, i)
		return
	}
	st.inline = append(st.inline, i)
}

// PlannedPasses compiles the execution plan (freezing the builder) and
// returns one label per planned pass group, post-fusion — "conv1+relu1"
// for a fused chain. Multi-output kernels contribute one entry covering
// all their passes.
func (p *Pipeline) PlannedPasses() ([]string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return nil, p.err
	}
	if err := p.dev.checkOpen("Pipeline.PlannedPasses"); err != nil {
		return nil, err
	}
	if p.closed {
		return nil, fmt.Errorf("core: pipeline: PlannedPasses: %w", ErrClosed)
	}
	if err := p.compile(); err != nil {
		return nil, err
	}
	labels := make([]string, len(p.plan.exec))
	for i := range p.plan.exec {
		labels[i] = p.plan.exec[i].label
	}
	return labels, nil
}

// Close releases the pipeline's pooled intermediate buffers and marks the
// pipeline closed: further Runs return ErrClosed. The kernels wired into
// stages are not closed (the pipeline does not own them). Idempotent, and
// safe against a concurrent Run (they serialize, so the pool is never
// freed under a pass).
func (p *Pipeline) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	p.pool.FreeAll()
	return nil
}

// Intermediates returns the pooled buffers the pipeline has allocated for
// its internal slots (ping-pong intermediates and hazard-copy targets).
// The pipeline owns them: callers may inspect them through dev.GL() but
// must not free them.
func (p *Pipeline) Intermediates() []*Buffer {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Buffer(nil), p.pool.all...)
}

func (p *Pipeline) fail(format string, args ...interface{}) Ref {
	if p.err == nil {
		p.err = fmt.Errorf("core: pipeline: "+format, args...)
	}
	return Ref(-1)
}

func (p *Pipeline) addSlot(elem codec.ElemType, n int) Ref {
	p.slots = append(p.slots, pipeSlot{elem: elem, n: n, inputIdx: -1, outputIdx: -1, lastUse: -1})
	return Ref(len(p.slots) - 1)
}

func (p *Pipeline) validRef(r Ref) bool { return r >= 0 && int(r) < len(p.slots) }

// Input declares an external input slot of n elements of type elem
// (Int8x4 for the packed inputs of 4-wide chains); the matching buffer is
// supplied positionally to Run.
func (p *Pipeline) Input(elem codec.ElemType, n int) Ref {
	if p.plan != nil {
		return p.fail("Input added after the pipeline compiled (build fully before the first Run)")
	}
	if n <= 0 {
		return p.fail("Input: non-positive length %d", n)
	}
	r := p.addSlot(elem, n)
	p.slots[r].inputIdx = len(p.inputs)
	p.inputs = append(p.inputs, r)
	return r
}

// Stage appends a kernel whose output has the same length as its first
// input. uniforms fixed here override Run-level uniforms.
func (p *Pipeline) Stage(k *Kernel, uniforms map[string]float32, ins ...Ref) Ref {
	if p.err != nil {
		return Ref(-1)
	}
	if len(ins) == 0 {
		return p.fail("Stage %q: no inputs; use StageN to set the output length", k.spec.Name)
	}
	if !p.validRef(ins[0]) {
		return p.fail("Stage %q: invalid input ref", k.spec.Name)
	}
	return p.StageN(k, p.slots[ins[0]].n, uniforms, ins...)
}

// StageN appends a kernel producing outN elements. The kernel must have a
// single output; use StageMulti for multi-output kernels.
func (p *Pipeline) StageN(k *Kernel, outN int, uniforms map[string]float32, ins ...Ref) Ref {
	outs := p.StageMulti(k, []int{outN}, uniforms, ins...)
	if len(outs) != 1 {
		return p.fail("StageN %q: kernel has %d outputs, want 1 (use StageMulti)", k.spec.Name, len(k.passes))
	}
	return outs[0]
}

// StageMulti appends a kernel with one declared length per kernel output
// and returns a Ref per output.
func (p *Pipeline) StageMulti(k *Kernel, outNs []int, uniforms map[string]float32, ins ...Ref) []Ref {
	if p.err != nil {
		return nil
	}
	if p.plan != nil {
		p.fail("stage %q added after the pipeline compiled (build fully before the first Run)", k.spec.Name)
		return nil
	}
	if len(outNs) != len(k.passes) {
		p.fail("StageMulti %q: kernel has %d outputs, got %d lengths", k.spec.Name, len(k.passes), len(outNs))
		return nil
	}
	if len(ins) != len(k.spec.Inputs) {
		p.fail("stage %q: kernel has %d inputs, got %d refs", k.spec.Name, len(k.spec.Inputs), len(ins))
		return nil
	}
	si := len(p.stages)
	for i, r := range ins {
		if !p.validRef(r) {
			p.fail("stage %q: input %d is not a ref of this pipeline", k.spec.Name, i)
			return nil
		}
		if p.slots[r].elem != k.spec.Inputs[i].Type {
			p.fail("stage %q: input %q expects %s, ref holds %s",
				k.spec.Name, k.spec.Inputs[i].Name, k.spec.Inputs[i].Type, p.slots[r].elem)
			return nil
		}
		p.slots[r].lastUse = si
	}
	st := pipeStage{kernel: k, ins: append([]Ref(nil), ins...), uniforms: uniforms, label: k.spec.Name}
	for i, out := range k.spec.Outputs {
		if outNs[i] <= 0 {
			p.fail("stage %q: non-positive output length %d", k.spec.Name, outNs[i])
			return nil
		}
		st.outs = append(st.outs, p.addSlot(out.Type, outNs[i]))
	}
	p.stages = append(p.stages, st)
	return st.outs
}

// ReduceOp is a commutative fold for Reduce. Expr is a GLSL ES 1.00
// expression over the partial `a` and the incoming element `b`.
type ReduceOp struct {
	Name string
	Expr string
}

// Built-in reduction operators.
var (
	ReduceAdd = ReduceOp{Name: "add", Expr: "a + b"}
	ReduceMin = ReduceOp{Name: "min", Expr: "min(a, b)"}
	ReduceMax = ReduceOp{Name: "max", Expr: "max(a, b)"}
)

// ReduceLenUniform is the uniform carrying the live input length into
// each fold pass of a reduce kernel, so odd tails fold correctly (the
// orphan element passes through unchanged). Callers driving
// BuildReduceKernel by hand must supply it per pass.
const ReduceLenUniform = "gc_reduce_n"

// Reduce folds the slot down to a single element with ceil(log2 n)
// pairwise passes, entirely on the device — the tree the examples used to
// hand-roll with explicit buffer juggling. Returns a 1-element Ref.
func (p *Pipeline) Reduce(in Ref, op ReduceOp) Ref {
	if p.err != nil {
		return Ref(-1)
	}
	if !p.validRef(in) {
		return p.fail("Reduce: invalid input ref")
	}
	elem := p.slots[in].elem
	k, err := p.dev.BuildReduceKernel(elem, op)
	if err != nil {
		p.err = err
		return Ref(-1)
	}
	if p.slots[in].n == 1 {
		// Already a single element: one pass-through fold pass (the
		// odd-tail guard makes it the identity) so the result is a stage
		// output Ref that can be marked with Output like any other.
		return p.StageN(k, 1, map[string]float32{ReduceLenUniform: 1}, in)
	}
	cur := in
	for n := p.slots[in].n; n > 1; n = (n + 1) / 2 {
		cur = p.StageN(k, (n+1)/2, map[string]float32{ReduceLenUniform: float32(n)}, cur)
		if p.err != nil {
			return Ref(-1)
		}
	}
	return cur
}

// BuildReduceKernel compiles (once per device and op/elem — compiled
// kernels are cached) the pairwise fold pass Pipeline.Reduce chains:
// input "x", one output of the same element type, and the
// ReduceLenUniform guard. Exposed so benchmarks can run the identical
// kernel outside a pipeline (e.g. to price the host round-trip path the
// pipeline eliminates).
func (d *Device) BuildReduceKernel(elem codec.ElemType, op ReduceOp) (*Kernel, error) {
	if op.Expr == "" {
		return nil, fmt.Errorf("core: BuildReduceKernel: empty op expression")
	}
	key := op.Name + "|" + op.Expr + "|" + elem.String()
	if k, ok := d.reduceKernels[key]; ok {
		return k, nil
	}
	src := fmt.Sprintf(`
float gc_kernel(float idx) {
	float a = gc_x(2.0 * idx);
	float bi = 2.0 * idx + 1.0;
	if (bi < %s) {
		float b = gc_x(bi);
		a = (%s);
	}
	return a;
}
`, ReduceLenUniform, op.Expr)
	k, err := d.BuildKernel(KernelSpec{
		Name:     "reduce-" + op.Name,
		Inputs:   []Param{{Name: "x", Type: elem}},
		Outputs:  []OutputSpec{{Name: "out", Type: elem}},
		Uniforms: []string{ReduceLenUniform},
		Source:   src,
	})
	if err != nil {
		return nil, err
	}
	if d.reduceKernels == nil {
		d.reduceKernels = map[string]*Kernel{}
	}
	d.reduceKernels[key] = k
	return k, nil
}

// Output marks a slot as an external output; the receiving buffer is
// supplied positionally to Run. A slot can be marked at most once, and
// external inputs cannot be outputs (copy through a kernel instead).
func (p *Pipeline) Output(r Ref) {
	if p.err != nil {
		return
	}
	if p.plan != nil {
		p.fail("Output marked after the pipeline compiled (build fully before the first Run)")
		return
	}
	if !p.validRef(r) {
		p.fail("Output: invalid ref")
		return
	}
	if p.slots[r].inputIdx >= 0 {
		p.fail("Output: ref is a pipeline input")
		return
	}
	if p.slots[r].outputIdx >= 0 {
		p.fail("Output: ref already marked")
		return
	}
	p.slots[r].outputIdx = len(p.outputs)
	p.outputs = append(p.outputs, r)
}

// PipelineStats reports one pipeline execution: the aggregated draw work,
// the modeled wall-clock of the whole chain under the vc4 timing model,
// and the host-traffic counters that prove the chain stayed
// device-resident (both byte counts are zero when it did).
type PipelineStats struct {
	Passes int            // fragment passes executed across all stages
	Draw   gles.DrawStats // aggregated draw statistics
	Time   Timeline       // modeled wall time of the chain (vc4 model)

	HostUploadBytes   uint64 // host→device bytes moved during Run
	HostReadbackBytes uint64 // device→host bytes moved during Run

	HazardCopies int // output-aliases-input resolutions via copy
	PoolAllocs   int // intermediates freshly allocated this run
	PoolReuses   int // intermediates served from the recycled pool

	// StageTimes is the modeled wall-time of each stage, one entry per
	// builder stage in order (hazard-copy passes are charged to the stage
	// that flushed them). Multi-stage workloads — a neural network pricing
	// its layers, say — aggregate these into per-phase breakdowns without
	// re-running the chain stage by stage. A stage fused into a
	// predecessor's pass reports a zero Timeline; the whole fused pass is
	// charged to the chain's first member, so the entries still sum to
	// Time.
	StageTimes []Timeline

	// FusedStages counts builder stages the fusion planner merged into a
	// predecessor's fragment pass (each one is a draw plus an RGBA8
	// encode→texture→decode round trip that never happened).
	FusedStages int
	// ExecStages labels the executed pass groups in order, a fused chain
	// reporting its members joined with "+" ("conv1+relu1").
	ExecStages []string
	// FusionFallbacks counts fused groups whose generated shader failed
	// to build and ran unfused instead (0 in healthy pipelines).
	FusionFallbacks int
}

// Run executes the pipeline. ins feed the declared Input slots in order;
// outs receive the marked Output slots in order. uniforms supplies
// kernel uniforms not fixed at build time (stage uniforms win). The
// first Run freezes the builder and compiles the execution plan —
// fusing eligible stage chains into single fragment passes — which every
// later Run reuses.
func (p *Pipeline) Run(outs []*Buffer, ins []*Buffer, uniforms map[string]float32) (PipelineStats, error) {
	var stats PipelineStats
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return stats, p.err
	}
	if err := p.dev.checkOpen("Pipeline.Run"); err != nil {
		return stats, err
	}
	if p.closed {
		return stats, fmt.Errorf("core: pipeline: Run: %w", ErrClosed)
	}
	if len(p.stages) == 0 {
		return stats, fmt.Errorf("core: pipeline: no stages")
	}
	if err := p.compile(); err != nil {
		return stats, err
	}
	if len(ins) != len(p.inputs) {
		return stats, fmt.Errorf("core: pipeline: %d inputs declared, got %d buffers", len(p.inputs), len(ins))
	}
	if len(outs) != len(p.outputs) {
		return stats, fmt.Errorf("core: pipeline: %d outputs marked, got %d buffers", len(p.outputs), len(outs))
	}
	bind := make([]*Buffer, len(p.slots))
	for i, r := range p.inputs {
		b := ins[i]
		s := &p.slots[r]
		if b.elem != s.elem {
			return stats, fmt.Errorf("core: pipeline: input %d holds %s, declared %s", i, b.elem, s.elem)
		}
		if b.n != s.n {
			return stats, fmt.Errorf("core: pipeline: input %d has %d elements, declared %d", i, b.n, s.n)
		}
		bind[r] = b
	}
	for i, r := range p.outputs {
		b := outs[i]
		s := &p.slots[r]
		if b.elem != s.elem {
			return stats, fmt.Errorf("core: pipeline: output %d holds %s, produced %s", i, b.elem, s.elem)
		}
		if b.n != s.n {
			return stats, fmt.Errorf("core: pipeline: output %d has %d elements, produced %d", i, b.n, s.n)
		}
		for j := 0; j < i; j++ {
			if outs[j].tex == b.tex {
				return stats, fmt.Errorf("core: pipeline: outputs %d and %d share a buffer (the later write would overwrite the earlier)", j, i)
			}
		}
	}

	tr0 := p.dev.ctx.Transfers()
	t0 := p.dev.Timeline()
	allocs0, reuses0 := p.pool.allocs, p.pool.reuses

	// Every pooled checkout is tracked so that error returns (and any
	// accounting slip) hand the buffers back instead of leaking them
	// from the pool one Run at a time.
	checkedOut := map[*Buffer]bool{}
	defer func() {
		for b := range checkedOut {
			p.pool.Release(b)
		}
	}()
	acquire := func(elem codec.ElemType, n int, grid layout.Grid) (*Buffer, error) {
		b, err := p.pool.Acquire(elem, n, grid)
		if err == nil {
			checkedOut[b] = true
		}
		return b, err
	}
	release := func(b *Buffer) {
		delete(checkedOut, b)
		p.pool.Release(b)
	}

	// A hazard copy pending until the aliased data's last reader has run:
	// slot's result sits in the pooled src until stage readyAfter
	// completes, then is copied into the user-owned dst.
	type pendingCopy struct {
		slot       Ref
		dst, src   *Buffer
		readyAfter int
	}
	var pending []pendingCopy

	stats.StageTimes = make([]Timeline, len(p.stages))
	stats.FusedStages = p.plan.fusedStages
	stats.FusionFallbacks = p.plan.fallbacks
	stats.ExecStages = make([]string, len(p.plan.exec))
	for ei := range p.plan.exec {
		es := &p.plan.exec[ei]
		stats.ExecStages[ei] = es.label
		stageT0 := p.dev.Timeline()
		stageIns := make([]*Buffer, len(es.ins))
		for i, r := range es.ins {
			if p.slots[r].fusedAway {
				return stats, fmt.Errorf("core: pipeline: internal: fused-away slot %d bound as an input of %q", r, es.label)
			}
			stageIns[i] = bind[r]
		}

		// Resolve render targets. A user-owned target is unsafe while
		// any live slot still awaiting readers shares its texture: that
		// covers both the GL hazard (this pass samples it) and the data
		// hazard (a later pass samples it). Render into a pooled
		// stand-in and defer the copy until the last such reader ran.
		stageOuts := make([]*Buffer, len(es.outs))
		for i, r := range es.outs {
			s := &p.slots[r]
			var target *Buffer
			if s.outputIdx >= 0 {
				target = outs[s.outputIdx]
				readyAfter := -1
				for r2 := range p.slots {
					s2 := &p.slots[r2]
					if Ref(r2) != r && bind[r2] != nil && s2.lastUse >= ei &&
						bind[r2].tex == target.tex && s2.lastUse > readyAfter {
						readyAfter = s2.lastUse
					}
				}
				if readyAfter >= ei {
					tmp, err := acquire(s.elem, s.n, target.grid)
					if err != nil {
						return stats, err
					}
					pending = append(pending, pendingCopy{slot: r, dst: target, src: tmp, readyAfter: readyAfter})
					stats.HazardCopies++
					target = tmp
				}
			} else {
				grid, err := layout.ForLength(s.elem.TexelsFor(s.n), p.dev.cfg.MaxGridWidth)
				if err != nil {
					return stats, err
				}
				target, err = acquire(s.elem, s.n, grid)
				if err != nil {
					return stats, err
				}
			}
			stageOuts[i] = target
		}

		var merged map[string]float32
		if es.uniBinds != nil {
			var err error
			if merged, err = p.resolveFusedUniforms(es, uniforms); err != nil {
				return stats, err
			}
		} else {
			merged = uniforms
			if st := &p.stages[es.members[0]]; len(st.uniforms) > 0 {
				merged = make(map[string]float32, len(uniforms)+len(st.uniforms))
				for k, v := range uniforms {
					merged[k] = v
				}
				for k, v := range st.uniforms {
					merged[k] = v
				}
			}
		}

		rs, err := es.kernel.Run(stageOuts, stageIns, merged)
		if err != nil {
			return stats, fmt.Errorf("stage %d (%s): %w", ei, es.label, err)
		}
		stats.Draw.Add(&rs.Draw)
		stats.Passes += len(es.kernel.passes)

		for i, r := range es.outs {
			s := &p.slots[r]
			if s.outputIdx < 0 && s.lastUse < 0 {
				// Produced but never read and not exposed: back to the
				// pool immediately.
				release(stageOuts[i])
				continue
			}
			bind[r] = stageOuts[i]
		}

		// Retire intermediates whose last reader has now run: their
		// textures go back to the pool for the next pass (ping-pong).
		// Deduplicate — a Ref wired into two params of one pass must
		// release its buffer exactly once.
		for _, r := range es.ins {
			s := &p.slots[r]
			if s.lastUse == ei && s.inputIdx < 0 && s.outputIdx < 0 && bind[r] != nil {
				release(bind[r])
				bind[r] = nil
			}
		}

		// Flush hazard copies whose aliased readers have all run.
		kept := pending[:0]
		for _, pc := range pending {
			if pc.readyAfter > ei {
				kept = append(kept, pc)
				continue
			}
			if err := p.dev.Copy(pc.dst, pc.src); err != nil {
				return stats, err
			}
			d := p.dev.ctx.LastDraw()
			stats.Draw.Add(&d)
			stats.Passes++
			bind[pc.slot] = pc.dst
			release(pc.src)
		}
		pending = kept
		// The whole pass — fused members included — is charged to the
		// chain's first builder stage; fused-away members keep a zero
		// Timeline so the per-stage entries still sum to Time.
		stats.StageTimes[es.members[0]] = stats.StageTimes[es.members[0]].Add(p.dev.Timeline().Sub(stageT0))
	}

	tr1 := p.dev.ctx.Transfers()
	stats.HostUploadBytes = tr1.TexUploadBytes - tr0.TexUploadBytes
	stats.HostReadbackBytes = tr1.ReadPixelsBytes - tr0.ReadPixelsBytes
	stats.Time = p.dev.Timeline().Sub(t0)
	stats.PoolAllocs = p.pool.allocs - allocs0
	stats.PoolReuses = p.pool.reuses - reuses0
	return stats, nil
}
