package core

import (
	"fmt"
	"strconv"
	"strings"
)

// fusion.go is the pipeline's automatic kernel-fusion planner (DESIGN.md
// §6d). When a pipeline compiles its stage graph, chains of fusable
// stages are merged into one generated fragment shader: the producer's
// gc_kernel is inlined in place of the consumer's gc_<input>(idx) fetch,
// so the intermediate array is never rendered, never packed into an RGBA8
// texture, and never unpacked again. Every fused edge deletes one draw's
// fixed costs AND one encode→texture→decode round trip — the "extra
// burden of packing and unpacking" the paper measures (A1: ~99% of kernel
// cycles on element-wise stages are codec work).
//
// Two join modes share one composition mechanism (see compile):
//
//   - element-wise: consumer B declares ElementWise and B's output
//     length equals producer A's, so A's function runs exactly once per
//     fragment (ReLU/Rescale epilogues after GEMM);
//   - inline-producer: B hinted the input with Pipeline.InlineInput,
//     trading caller-asserted recomputation for the deleted pass — every
//     fetch of the fused slot evaluates A's kernel at the fetched index,
//     with no length or access-pattern restriction (a non-overlapping
//     max-pool absorbing the GEMM that feeds it).
//
// Safety rules (all must hold to fuse consumer stage B into the group
// ending at producer stage A):
//
//  1. B has a single output and a single pass, and qualifies under one
//     of the two join modes above.
//  2. A's group can host: its base kernel declares FusableEpilogue or
//     ElementWise, and has a single output.
//  3. The slot A produces is read by exactly one stage (B) and is not
//     marked as a pipeline Output — both would force materialization.
//  4. B does not touch the fused slot's texture machinery
//     (gc_<in>_at, gc_<in>_dims and the walk helpers gc_<in>_st and
//     gc_<in>4_st), and A — which stops being the final
//     member — does not read raster state (v_uv, gl_FragCoord,
//     gc_out_dims) whose value depends on which pass it executes in.
//  5. Any member reading gc_out_n must have the chain's final output
//     length, or the uniform's value would change under fusion.
//
// Numerically, fusion is conservative by construction: int32 chains stay
// bit-identical to the unfused path (integer-valued floats below 2^24
// round-trip the codec exactly, so skipping the round trip changes
// nothing), and float32 chains get strictly closer to the infinite-
// precision result (each skipped round trip removes a ~15-mantissa-bit
// quantization) — "better" still means re-tolerancing differential tests
// that assumed the quantized value.

// uniBind maps one uniform of the fused program back to the member stage
// whose source it came from: at Run, the value is resolved exactly as the
// member's standalone pass would have resolved its original name (stage
// uniforms first, then run-level uniforms).
type uniBind struct {
	member  int    // builder stage index
	orig    string // uniform name in the member's spec
	renamed string // uniform name in the fused program
}

// execStage is one planned fragment pass (or multi-output pass group) of
// a compiled pipeline: a singleton builder stage, or a fused chain of
// them sharing one generated kernel.
type execStage struct {
	kernel   *Kernel
	ins      []Ref
	outs     []Ref
	members  []int     // builder stage indices, chain order
	label    string    // "conv1+relu1"
	uniBinds []uniBind // nil for singleton stages
}

// indexIdent returns the byte offset of the first standalone occurrence
// of identifier name in src at or after from, or -1. GLSL identifiers are
// [A-Za-z0-9_]+, so an occurrence stands alone when neither neighbour is
// an identifier byte: gc_x does not match inside gc_x_at, gc_x4 or
// my_gc_x. One strings.Index scan per candidate, no pattern compiled.
func indexIdent(src, name string, from int) int {
	for from <= len(src) {
		i := strings.Index(src[from:], name)
		if i < 0 {
			return -1
		}
		i += from
		end := i + len(name)
		if (i == 0 || !identByte(src[i-1])) && (end == len(src) || !identByte(src[end])) {
			return i
		}
		from = i + 1
	}
	return -1
}

func identByte(c byte) bool {
	return c == '_' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

// renameIdent replaces standalone occurrences of identifier from with to.
func renameIdent(src, from, to string) string {
	i := indexIdent(src, from, 0)
	if i < 0 {
		return src
	}
	var b strings.Builder
	last := 0
	for ; i >= 0; i = indexIdent(src, from, last) {
		b.WriteString(src[last:i])
		b.WriteString(to)
		last = i + len(from)
	}
	b.WriteString(src[last:])
	return b.String()
}

// mentionsIdent reports whether src uses the identifier.
func mentionsIdent(src, name string) bool {
	return indexIdent(src, name, 0) >= 0
}

// textureMachinery names the accessors of input in that address its
// texture directly instead of through the linear gc_<in>(idx) /
// gc_<in>4(tidx) fetch: the 2D fetch, the grid dimensions and the walk
// helpers. A fused slot has no texture, so a consumer using any of them
// on its chain input cannot fuse (rule 4).
func textureMachinery(in string) []string {
	return []string{"gc_" + in + "_at", "gc_" + in + "_dims", "gc_" + in + "_st", "gc_" + in + "4_st"}
}

// readsTextureMachinery reports whether src uses any of input in's
// texture machinery.
func readsTextureMachinery(src, in string) bool {
	for _, name := range textureMachinery(in) {
		if mentionsIdent(src, name) {
			return true
		}
	}
	return false
}

// readsRasterState reports whether a kernel source depends on values that
// change when the code runs in a different pass than its own: the varying,
// the fragment coordinate, or the output grid dimensions. Such a stage
// can only ever be the FINAL member of a fused chain (where the pass IS
// its own). gc_out_n is handled separately (group.outNRefs): it stays
// valid as long as the member's length equals the chain's final length.
func readsRasterState(src string) bool {
	return mentionsIdent(src, "v_uv") ||
		mentionsIdent(src, "gl_FragCoord") ||
		mentionsIdent(src, "gc_out_dims")
}

// fuseMember is one builder stage being composed into a fused kernel.
type fuseMember struct {
	spec       KernelSpec // normalized, single output
	stage      int        // builder stage index
	label      string
	ins        []Ref
	chainInput int                // input index fed by the previous member; -1 for the base
	uniforms   map[string]float32 // the stage's build-time fixed uniforms
}

// glslFloatLiteral renders a float32 as a GLSL ES 1.00 float literal
// (the grammar requires a decimal point or exponent), or "" when the
// value has no literal form (NaN/Inf).
func glslFloatLiteral(v float32) string {
	f := float64(v)
	if f != f || f > 3.5e38 || f < -3.5e38 {
		return ""
	}
	s := strconv.FormatFloat(f, 'g', -1, 32)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// composeFusedSpec assembles the fused kernel specification for a chain
// of members: each member's source is emitted with its kernel function,
// accessors and uniforms renamed into a private namespace, the chain
// input's accessor rebound to the previous member's kernel function, and
// a trailing gc_kernel dispatching to the last member. External inputs
// are deduplicated by slot, so a weight array read by two members binds
// one texture unit.
func composeFusedSpec(members []fuseMember) (KernelSpec, []uniBind, []Ref, error) {
	var (
		spec     KernelSpec
		binds    []uniBind
		extSlots []Ref
		src      strings.Builder
		slotPar  = map[Ref]string{}
		allEW    = true
	)
	lanes := members[0].spec.lanes()
	for j, m := range members {
		if len(m.spec.Outputs) != 1 {
			return spec, nil, nil, fmt.Errorf("core: fuse: member %q has %d outputs", m.label, len(m.spec.Outputs))
		}
		if m.spec.lanes() != lanes {
			return spec, nil, nil, fmt.Errorf("core: fuse: member %q is %d-wide in a %d-wide chain", m.label, m.spec.lanes(), lanes)
		}
		if !m.spec.ElementWise {
			allEW = false
		}
		body := m.spec.Source
		fn := kernelFunctionName(m.spec, m.spec.Outputs[0])
		body = renameIdent(body, fn, fmt.Sprintf("gc_fk%d", j))
		for i, in := range m.spec.Inputs {
			if i == m.chainInput {
				if readsTextureMachinery(body, in.Name) {
					return spec, nil, nil, fmt.Errorf("core: fuse: member %q reads texture machinery of fused input %q", m.label, in.Name)
				}
				if lanes == 4 {
					// 4-wide chains compose through the whole-texel
					// accessor: gc_<in>4(tidx) becomes the previous
					// member's vec4 kernel function. The scalar
					// lane-select accessor has no fused counterpart —
					// serving it would recompute the producer's full
					// vec4 per lane — so its use blocks the fusion.
					body = renameIdent(body, "gc_"+in.Name+"4", fmt.Sprintf("gc_fk%d", j-1))
					if mentionsIdent(body, "gc_"+in.Name) {
						return spec, nil, nil, fmt.Errorf("core: fuse: member %q reads fused 4-wide input %q through the scalar accessor", m.label, in.Name)
					}
				} else {
					body = renameIdent(body, "gc_"+in.Name, fmt.Sprintf("gc_fk%d", j-1))
				}
				continue
			}
			slot := m.ins[i]
			pname, ok := slotPar[slot]
			if !ok {
				pname = fmt.Sprintf("fin%d", len(spec.Inputs))
				slotPar[slot] = pname
				spec.Inputs = append(spec.Inputs, Param{Name: pname, Type: in.Type})
				extSlots = append(extSlots, slot)
			}
			to := textureMachinery(pname)
			for k, name := range textureMachinery(in.Name) {
				body = renameIdent(body, name, to[k])
			}
			body = renameIdent(body, "gc_"+in.Name+"4", "gc_"+pname+"4")
			body = renameIdent(body, "gc_"+in.Name, "gc_"+pname)
		}
		for _, u := range m.spec.Uniforms {
			// Stage-fixed uniforms fold into literals: their value can
			// never change at Run (stage uniforms override run-level
			// ones), and every folded uniform is one less vector against
			// the device's tight fragment-uniform budget — a fused
			// GEMM+ReLU+pool chain would otherwise blow the ES 2.0
			// 16-vector minimum its members individually fit in.
			if v, ok := m.uniforms[u]; ok {
				if lit := glslFloatLiteral(v); lit != "" {
					body = renameIdent(body, u, "("+lit+")")
					continue
				}
			}
			renamed := fmt.Sprintf("fu%d_%s", j, u)
			body = renameIdent(body, u, renamed)
			spec.Uniforms = append(spec.Uniforms, renamed)
			binds = append(binds, uniBind{member: m.stage, orig: u, renamed: renamed})
		}
		fmt.Fprintf(&src, "// ---- fused member %d: %s ----\n%s\n", j, m.label, body)
	}
	if lanes == 4 {
		fmt.Fprintf(&src, "vec4 gc_kernel(float tidx) { return gc_fk%d(tidx); }\n", len(members)-1)
	} else {
		fmt.Fprintf(&src, "float gc_kernel(float idx) { return gc_fk%d(idx); }\n", len(members)-1)
	}

	labels := make([]string, len(members))
	for j, m := range members {
		labels[j] = m.label
	}
	base := members[0].spec
	last := members[len(members)-1].spec.Outputs[0]
	spec.Name = strings.Join(labels, "+")
	spec.Outputs = []OutputSpec{{Name: "out", Type: last.Type}}
	spec.Source = src.String()
	spec.ElementWise = allEW
	spec.FusableEpilogue = base.FusableEpilogue || base.ElementWise
	return spec, binds, extSlots, nil
}

// plan is a compiled pipeline execution schedule.
type plan struct {
	exec        []execStage
	fusedStages int // builder stages merged into a predecessor's pass
	fallbacks   int // fused groups whose generated shader failed to build
	programs    int // distinct GL programs the plan draws
}

// compile freezes the pipeline's stage graph into an execution plan,
// fusing eligible chains when fusion is enabled, and links the programs
// the plan draws. Called once, on the first Run or PlannedPasses; the
// plan is reused by every subsequent Run. A fused group whose generated
// shader fails to compile falls back to running its members unfused
// (counted in PipelineStats.FusionFallbacks) — fusion is an
// optimization, never a new failure mode.
func (p *Pipeline) compile() error {
	if p.plan != nil {
		return nil
	}

	// Producer stage and consumer count per slot.
	producer := make([]int, len(p.slots))
	consumers := make([]int, len(p.slots))
	for i := range producer {
		producer[i] = -1
	}
	for si, st := range p.stages {
		for _, r := range st.outs {
			producer[r] = si
		}
		for _, r := range st.ins {
			consumers[r]++
		}
	}

	// Group formation: walk stages in order; each stage either starts its
	// own group or appends to the group whose tail produces one of its
	// inputs (the chain input). Two join modes share the machinery:
	//
	//   element-wise — the consumer declares ElementWise and its output
	//   length matches the producer's, so the producer's function is
	//   evaluated exactly once per fragment;
	//
	//   inline-producer — the consumer hinted the input with InlineInput,
	//   trading (bounded, caller-asserted) recomputation for the deleted
	//   pass: every fetch of the fused slot evaluates the producer's
	//   kernel at the fetched index, with no length or access-pattern
	//   restriction. Members of such a group must not read gc_out_n
	//   (lengths differ across members there).
	type group struct {
		members    []int // builder stage indices
		chainParam []int // per member: which input is the chain (-1 base)
		tail       int   // last member's builder index
		outSlot    Ref   // the group's external output slot
		// outNRefs holds the output length of every member whose source
		// mentions gc_out_n: in the fused pass that uniform carries the
		// FINAL member's length, so such a member is only correct while
		// its own length equals the chain's final length.
		outNRefs []int
	}
	var groups []*group
	groupOf := make([]*group, len(p.stages))
	hostable := func(g *group) bool {
		base := p.stages[g.members[0]].kernel.spec
		return (base.FusableEpilogue || base.ElementWise) && len(p.stages[g.members[0]].outs) == 1
	}
	for si := range p.stages {
		st := &p.stages[si]
		var joined *group
		fusableShape := p.fusion && len(st.outs) == 1 && len(st.kernel.spec.Outputs) == 1
		inlineHint := func(i int) bool {
			for _, h := range st.inline {
				if h == i {
					return true
				}
			}
			return false
		}
		if fusableShape {
			for i, r := range st.ins {
				if producer[r] < 0 || consumers[r] != 1 || p.slots[r].outputIdx >= 0 {
					continue
				}
				g := groupOf[producer[r]]
				if g.outSlot != r || !hostable(g) {
					continue
				}
				tailSrc := p.stages[g.tail].kernel.spec.Source
				outN := p.slots[st.outs[0]].n
				ewJoin := st.kernel.spec.ElementWise && p.slots[r].n == outN
				if !ewJoin && !inlineHint(i) {
					continue
				}
				// Lane widths must agree across a fused edge: a scalar
				// consumer expects `float f(idx)` where a 4-wide producer
				// defines `vec4 f(tidx)` (and vice versa) — the value
				// crossing the edge changes shape. Cross-width chains
				// materialize the slot; Device.BuildRepackKernel converts
				// it in an explicit (never-fused) pass.
				if st.kernel.spec.lanes() != p.stages[g.tail].kernel.spec.lanes() {
					continue
				}
				// Every member that reads gc_out_n must have the chain's
				// (new) final length, or its value changes under fusion.
				outNOK := true
				for _, n := range g.outNRefs {
					if n != outN {
						outNOK = false
					}
				}
				if !outNOK {
					continue
				}
				// The current tail stops being the chain's final member:
				// it must not read per-pass raster state, and the
				// consumer must not touch the fused slot's texture
				// machinery (re-checked by composeFusedSpec).
				if readsRasterState(tailSrc) {
					continue
				}
				inName := st.kernel.spec.Inputs[i].Name
				csrc := st.kernel.spec.Source
				if readsTextureMachinery(csrc, inName) {
					continue
				}
				g.members = append(g.members, si)
				g.chainParam = append(g.chainParam, i)
				g.tail = si
				g.outSlot = st.outs[0]
				if mentionsIdent(csrc, "gc_out_n") {
					g.outNRefs = append(g.outNRefs, outN)
				}
				joined = g
				break
			}
		}
		if joined == nil {
			joined = &group{members: []int{si}, chainParam: []int{-1}, tail: si}
			if len(st.outs) == 1 {
				joined.outSlot = st.outs[0]
				if mentionsIdent(st.kernel.spec.Source, "gc_out_n") {
					joined.outNRefs = append(joined.outNRefs, p.slots[st.outs[0]].n)
				}
			} else {
				joined.outSlot = Ref(-1)
			}
			groups = append(groups, joined)
		}
		groupOf[si] = joined
	}

	// Lower groups to exec stages. Groups execute in tail order; since a
	// slot consumed outside its group is always produced by that group's
	// tail, and builder order is topological, tail order is topological
	// too. Group tails are strictly increasing in the builder order by
	// construction (a group's tail only ever advances to the stage being
	// appended), so emitting in builder-tail order is a stable sort.
	pl := &plan{}
	emit := func(si int) {
		st := &p.stages[si]
		pl.exec = append(pl.exec, execStage{
			kernel:  st.kernel,
			ins:     st.ins,
			outs:    st.outs,
			members: []int{si},
			label:   st.label,
		})
	}
	ordered := make([]*group, len(groups))
	copy(ordered, groups)
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && ordered[j-1].tail > ordered[j].tail; j-- {
			ordered[j-1], ordered[j] = ordered[j], ordered[j-1]
		}
	}
	for _, g := range ordered {
		if len(g.members) == 1 {
			emit(g.members[0])
			continue
		}
		members := make([]fuseMember, len(g.members))
		for j, si := range g.members {
			st := &p.stages[si]
			members[j] = fuseMember{
				spec:       st.kernel.spec,
				stage:      si,
				label:      st.label,
				ins:        st.ins,
				chainInput: g.chainParam[j],
				uniforms:   st.uniforms,
			}
		}
		spec, binds, extSlots, err := composeFusedSpec(members)
		var k *Kernel
		if err == nil {
			k, err = p.dev.BuildKernelCached(spec)
		}
		if err != nil {
			// Fall back to the unfused members; fusion must never turn a
			// valid pipeline into a broken one.
			pl.fallbacks++
			for _, si := range g.members {
				emit(si)
			}
			continue
		}
		tail := &p.stages[g.tail]
		pl.exec = append(pl.exec, execStage{
			kernel:   k,
			ins:      extSlots,
			outs:     tail.outs,
			members:  append([]int(nil), g.members...),
			label:    spec.Name,
			uniBinds: binds,
		})
		pl.fusedStages += len(g.members) - 1
		// Slots eliminated by the fusion never materialize: mark them so
		// Run's binding loop can assert it never touches one.
		for _, si := range g.members[:len(g.members)-1] {
			for _, r := range p.stages[si].outs {
				p.slots[r].fusedAway = true
			}
		}
	}

	// Compile on draw: link exactly the programs the plan draws. A stage
	// folded into a fused pass never links, and a stage kernel's compile
	// error surfaces here — from PlannedPasses or Run — as a builder error.
	drawn := map[*Kernel]bool{}
	for ei := range pl.exec {
		k := pl.exec[ei].kernel
		if err := k.link(); err != nil {
			p.err = fmt.Errorf("core: pipeline: stage %q: %w", pl.exec[ei].label, err)
			return p.err
		}
		if !drawn[k] {
			drawn[k] = true
			pl.programs += len(k.passes)
		}
	}

	// Re-derive last-use positions in exec-plan space (the builder filled
	// them in stage space; fusion reorders and deletes reads).
	for i := range p.slots {
		p.slots[i].lastUse = -1
	}
	for ei := range pl.exec {
		for _, r := range pl.exec[ei].ins {
			p.slots[r].lastUse = ei
		}
	}
	p.plan = pl
	return nil
}

// resolveFusedUniforms builds the uniform map a fused pass binds: every
// renamed uniform takes the value its member's standalone pass would have
// used — the member's build-time stage uniforms first, then the run-level
// map.
func (p *Pipeline) resolveFusedUniforms(es *execStage, runUniforms map[string]float32) (map[string]float32, error) {
	merged := make(map[string]float32, len(es.uniBinds))
	for _, b := range es.uniBinds {
		if v, ok := p.stages[b.member].uniforms[b.orig]; ok {
			merged[b.renamed] = v
			continue
		}
		if v, ok := runUniforms[b.orig]; ok {
			merged[b.renamed] = v
			continue
		}
		return nil, fmt.Errorf("core: pipeline: fused stage %q: uniform %q not supplied", es.label, b.orig)
	}
	return merged, nil
}
