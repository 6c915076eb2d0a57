package shader

// Dispatch specialization for the bytecode VM. Compile emits fully generic
// instructions: every builtin call goes through one opBuiltin dispatch into
// execBuiltin's table-driven descriptor path, and every arithmetic operation
// is its own trip around the interpreter loop. For the fused mega-kernels
// the pipeline planner generates, that dispatch overhead dominates — the
// codec spine of such a kernel is a long straight line of texture2D /
// floor / fract / mod arithmetic, executed once per fragment.
//
// specialize rewrites the code stream after compilation:
//
//  1. Builtin specialization (in place, 1:1): the builtins on the codec
//     decode→ALU→encode spine (texture2D, floor, fract, mod, min, max,
//     clamp, step, dot) become direct opcodes executed inline by the VM
//     loop, skipping the descriptor load, the closure-based argument
//     fetch, and the 60-way builtin switch.
//
//  2. Superinstruction fusion (with code compaction): adjacent
//     opLoadImm+opMul/opAdd pairs become opMulImm/opAddImm, and
//     opMul+opAdd chains (a*b+c) become opMulAdd, halving dispatches on
//     the scale/bias arithmetic the codecs are made of. Fusion removes
//     instructions, so every jump target, function entry and the
//     init/main entries are retargeted over the compacted stream.
//
//  3. Texel decode fusion (same compaction): the eight instructions
//     Compile emits for a vec4 codec decode, floor(texture2D(s, st) * K
//     ± vec4(C)), become one opTexDecode, for the (K, C, op) shapes the
//     codecs emit. When the sampler serves the texel's bytes
//     (TextureSampler.Texel2D), every value the run would compute is a
//     lookup in that shape's 256-entry table, built at package init by
//     the same float32 operations; otherwise the op samples through
//     Sample2D and does the arithmetic inline.
//
//  4. Loop-step fusion (same compaction): a compare and the opJz that
//     tests it, with the opLoadImm of a compared constant, become one
//     compare-and-branch (opBrLt..opBrGe); v += K before a loop's back
//     edge folds into it (opLoopStep); and the move that stores a
//     result into its variable folds into the op that produced it
//     (opAddMov, opMulAcc, opTexDecode's fwd).
//
// Correctness contract (same as compile.go): the rewritten program must be
// bit-identical to the generic stream in both outputs and Stats.
//
//   - Stats are untouched: Compile folds each straight-line region's
//     counts into one table entry, and the op that ends a region counts
//     it (the control transfer's n, or an opStats before a jump target).
//     A fused op that ends in a branch counts the region its opJz or
//     back edge counted, and every other fused run lies inside one
//     region, so no count moves to another region. An opStats is never
//     fused.
//   - Builtin destination registers never alias their argument registers
//     (the destination temp is allocated after every argument is
//     evaluated, and scratch temps grow monotonically within a
//     statement), so skipping execBuiltin's defensive zero-the-dst
//     prologue is exact for builtins that write every output component
//     unconditionally — which all specialized ones do. The specializer
//     still verifies non-aliasing per site and falls back to the generic
//     opcode if it ever fails to hold.
//   - Fused pairs preserve the memory image: opMulImm/opAddImm still
//     store the immediate to its register, and opMulAdd still stores the
//     product, because liveness of those temps is not tracked. The
//     product is rounded to float32 through an explicit conversion so
//     the Go compiler cannot contract the multiply-add into an FMA.
//   - opTexDecode writes every register of the run it replaces (the texel,
//     K's register, the product, C's register, its moved copy, the splat,
//     the sum and the floor), and only fuses a run whose written ranges
//     are pairwise disjoint, so the order of its writes cannot matter.
//   - The loop-step fusions also write every register their run writes:
//     the immediate, the compare's result, the temporary a forwarded
//     result was computed in. A forwarded result is copied after all of
//     it is computed, as the move did, and a forward whose target
//     partially overlaps the result is refused (the copy is component by
//     component, the move a memmove).
//   - A run is only fused when none of its instructions but the first is
//     a jump target (including opCall return addresses at pc+1), so
//     control can never enter the middle of a superinstruction.

import (
	"math"

	"glescompute/internal/glsl"
)

// Specialized opcodes, appended after the generic set (compile.go).
const (
	opTex2D     opcode = 100 + iota // dst..dst+3 = Sample2D(unit=regs[a], regs[b], regs[b+1])
	opBFloor                        // regs[dst+i] = floor(regs[a+i])
	opBFract                        // regs[dst+i] = fract(regs[a+i])
	opBMod                          // componentwise GLSL mod; aux bit0/bit1 broadcast a/b
	opBMin                          // componentwise min; aux broadcast bits
	opBMax                          // componentwise max; aux broadcast bits
	opBClamp                        // clamp(a, b, c); aux bit0/bit1 broadcast b/c
	opBStep                         // step(edge=a, x=b); aux broadcast bits
	opBDot                          // regs[dst] = dot(a, b) over n components
	opMulImm                        // regs[c] = imm; then opMul dst,a,b
	opAddImm                        // regs[c] = imm; then opAdd dst,a,b
	opMulAdd                        // regs[c+i] = a*b; regs[dst+i] = sum with packed operand (see exec)
	opTexDecode                     // dst..dst+3 = floor(texel(unit=regs[a], regs[b], regs[b+1]) * K ± C); aux = texDecodes index
	opAddMov                        // opAdd; then regs[c:c+n] = regs[dst:dst+n]
	opMulAcc                        // opMulAdd; then the sum is stored back into the packed operand (acc += a*b)
	opBrLt                          // [regs[c] = imm if c >= 0]; regs[dst] = regs[a] < regs[b]; count entry n; if false: pc = aux
	opBrLe                          // as opBrLt with <=
	opBrGt                          // as opBrLt with >
	opBrGe                          // as opBrLt with >=
	opLoopStep                      // regs[c] = imm; regs[dst] = regs[a] + regs[c]; regs[a] = regs[dst]; then opLoopBack
)

// endsRegion reports whether op counts the stats region it ends (the
// table index in n).
func endsRegion(op opcode) bool {
	return branches(op) || op == opCall || op == opRet || op == opDiscard || op == opDiscardHalt
}

// branches reports whether op transfers control to aux (the ops jumps
// retarget, and whose aux a jump target validation reads).
func branches(op opcode) bool {
	switch op {
	case opJmp, opJz, opJnz, opLoopBack, opBrLt, opBrLe, opBrGt, opBrGe, opLoopStep:
		return true
	}
	return false
}

// specialize rewrites c.code in place after Compile. It never changes
// observable behaviour; it only collapses dispatch.
func specialize(c *Compiled) {
	specializeBuiltins(c)
	fuseRuns(c)
}

// ---- Pass 1: direct builtin opcodes (1:1, in place) ----

// rangesOverlap reports whether [a, a+an) and [b, b+bn) intersect.
func rangesOverlap(a, an, b, bn int32) bool {
	return a < b+bn && b < a+an
}

// builtinAliases reports whether the destination range of d overlaps any
// argument range — never true for code Compile emits (see file comment),
// but checked so specialization degrades instead of miscompiling.
func builtinAliases(d *builtinDesc, dn int32) bool {
	for k := int32(0); k < d.nargs; k++ {
		an := d.nc
		if d.scalar[k] {
			an = 1
		}
		if d.id == glsl.BDot {
			an = d.an
		}
		if rangesOverlap(d.dst, dn, d.args[k], an) {
			return true
		}
	}
	return false
}

func specializeBuiltins(c *Compiled) {
	for pc := range c.code {
		in := &c.code[pc]
		if in.op != opBuiltin {
			continue
		}
		d := &c.builtins[in.aux]
		var aux int32
		if d.scalar[1] {
			aux |= 1
		}
		if d.scalar[2] {
			aux |= 2
		}
		switch d.id {
		case glsl.BTexture2D, glsl.BTexture2DBias, glsl.BTexture2DLod:
			// The fetch reads one unit register and two coordinates,
			// whatever its result width.
			if rangesOverlap(d.dst, 4, d.args[0], 1) || rangesOverlap(d.dst, 4, d.args[1], 2) {
				continue
			}
			*in = instr{op: opTex2D, dst: d.dst, a: d.args[0], b: d.args[1], aux: in.aux}
		case glsl.BFloor, glsl.BFract:
			if builtinAliases(d, d.nc) {
				continue
			}
			op := opBFloor
			if d.id == glsl.BFract {
				op = opBFract
			}
			*in = instr{op: op, dst: d.dst, a: d.args[0], n: d.nc}
		case glsl.BMod, glsl.BMin, glsl.BMax, glsl.BStep:
			if builtinAliases(d, d.nc) {
				continue
			}
			// These read both operands through comp(): scalar broadcast on
			// either side.
			var o opcode
			switch d.id {
			case glsl.BMod:
				o = opBMod
			case glsl.BMin:
				o = opBMin
			case glsl.BMax:
				o = opBMax
			case glsl.BStep:
				o = opBStep
			}
			a2 := int32(0)
			if d.scalar[0] {
				a2 |= 1
			}
			if d.scalar[1] {
				a2 |= 2
			}
			*in = instr{op: o, dst: d.dst, a: d.args[0], b: d.args[1], n: d.nc, aux: a2}
		case glsl.BClamp:
			if builtinAliases(d, d.nc) {
				continue
			}
			// clamp's first argument is the full-width genType (arg(), not
			// comp()); only the bounds broadcast.
			*in = instr{op: opBClamp, dst: d.dst, a: d.args[0], b: d.args[1], c: d.args[2], n: d.nc, aux: aux}
		case glsl.BDot:
			if builtinAliases(d, 1) {
				continue
			}
			*in = instr{op: opBDot, dst: d.dst, a: d.args[0], b: d.args[1], n: d.an}
		}
	}
}

// ---- Passes 2 and 3: superinstruction fusion with compaction ----

// jumpTargets marks, by pc, where control can land from anywhere but
// straight-line fallthrough: jump targets, function entries, the init/main
// entries, and opCall return addresses.
func jumpTargets(c *Compiled) []bool {
	t := make([]bool, len(c.code)+1)
	t[c.initEntry], t[c.mainEntry] = true, true
	for _, fi := range c.funcs {
		t[fi.entry] = true
	}
	for pc, in := range c.code {
		switch {
		case branches(in.op):
			t[in.aux] = true
		case in.op == opCall:
			t[int32(pc)+1] = true
		}
	}
	return t
}

// fuseAt returns the superinstruction replacing the n instructions from
// code[pc], or n = 0 when none fuses there. Longer runs are tried first.
func fuseAt(c *Compiled, code []instr, targets []bool, pc int) (instr, int) {
	run := func(n int) []instr {
		if !straight(targets, pc, n) {
			return nil
		}
		return code[pc : pc+n]
	}
	// The longer runs start with a fetch or an immediate: look at the
	// opcode before walking the jump targets (this runs at every pc).
	switch code[pc].op {
	case opTex2D:
		if r := run(texDecodeLen); r != nil {
			if d, ok := texDecodeAt(r); ok {
				n := texDecodeLen
				if r := run(n + 1); r != nil {
					if to, ok := forwardTo(&r[n], d.out, 4); ok {
						d.fwd, n = to, n+1
					}
				}
				c.texDecodes = append(c.texDecodes, d)
				return instr{op: opTexDecode, dst: d.out, a: r[0].a, b: r[0].b, aux: int32(len(c.texDecodes) - 1)}, n
			}
		}
	case opLoadImm:
		if r := run(4); r != nil {
			if f, ok := loopStepAt(r); ok {
				return f, 4
			}
		}
		if r := run(3); r != nil {
			if f, ok := branchAt(r[1:], &r[0]); ok {
				return f, 3
			}
		}
	}
	r := run(2)
	if r == nil {
		return instr{}, 0
	}
	if f, ok := branchAt(r, nil); ok {
		return f, 2
	}
	if f, ok := pairAt(&r[0], &r[1]); ok {
		if f.op == opMulAdd {
			// acc += a*b: the sum's move back into the add's other operand
			// folds in too.
			if r := run(3); r != nil {
				if to, ok := forwardTo(&r[2], f.dst, f.n); ok && to == f.aux>>5 {
					f.op = opMulAcc
					return f, 3
				}
			}
		}
		return f, 2
	}
	if r[0].op == opAdd {
		if to, ok := forwardTo(&r[1], r[0].dst, r[0].n); ok {
			f := r[0]
			f.op, f.c = opAddMov, to
			return f, 2
		}
	}
	return instr{}, 0
}

// forwardTo reports where m copies the n registers at src, when m is the
// move that stores a statement's result into its variable: an opMov of
// exactly that range, or a one-component opSwizStore (v.x = ...).
func forwardTo(m *instr, src, n int32) (int32, bool) {
	var to int32
	switch {
	case m.op == opMov && m.a == src && m.n == n:
		to = m.dst
	case m.op == opSwizStore && m.a == src && m.n == 1 && n == 1:
		to = m.dst + m.aux&0xf
	default:
		return 0, false
	}
	// The fused op copies component by component, the move as a memmove:
	// they agree unless the two ranges partially overlap.
	if to != src && rangesOverlap(to, n, src, n) {
		return 0, false
	}
	return to, true
}

// branchAt fuses a compare and the opJz that tests it, and the opLoadImm
// before them (ld, or nil) that loads one of the compared operands, into
// one compare-and-branch. The fused op writes the immediate and the
// compare's result like the run, and counts the opJz's region.
func branchAt(r []instr, ld *instr) (instr, bool) {
	cmp, jz := &r[0], &r[1]
	var op opcode
	switch cmp.op {
	case opLt:
		op = opBrLt
	case opLe:
		op = opBrLe
	case opGt:
		op = opBrGt
	case opGe:
		op = opBrGe
	default:
		return instr{}, false
	}
	if jz.op != opJz || jz.a != cmp.dst {
		return instr{}, false
	}
	f := instr{op: op, dst: cmp.dst, a: cmp.a, b: cmp.b, c: -1, n: jz.n, aux: jz.aux}
	if ld != nil {
		if ld.op != opLoadImm || ld.dst != cmp.a && ld.dst != cmp.b {
			return instr{}, false
		}
		f.c, f.imm = ld.dst, ld.imm
	}
	return f, true
}

// loopStepAt fuses a loop's back edge with the increment before it,
// v += K compiled as opLoadImm k = K; opAdd t = v + k; opMov v = t.
func loopStepAt(r []instr) (instr, bool) {
	ld, add, mov, back := &r[0], &r[1], &r[2], &r[3]
	if ld.op != opLoadImm || add.op != opAdd || add.n != 1 || add.aux != 0 || add.b != ld.dst ||
		mov.op != opMov || mov.n != 1 || mov.a != add.dst || mov.dst != add.a || back.op != opLoopBack {
		return instr{}, false
	}
	return instr{op: opLoopStep, dst: add.dst, a: add.a, b: back.b, c: ld.dst, n: back.n, aux: back.aux, imm: ld.imm}, true
}

// pairAt returns the superinstruction replacing the pair in1, in2, or
// ok=false when the pair does not fuse.
func pairAt(in1, in2 *instr) (instr, bool) {
	switch {
	case in1.op == opLoadImm && (in2.op == opMul || in2.op == opAdd):
		// The immediate's register keeps its store (liveness is unknown),
		// so the fused op is exactly "regs[c] = imm; <arith>".
		if in2.a != in1.dst && in2.b != in1.dst {
			return instr{}, false
		}
		out := *in2
		if in2.op == opMul {
			out.op = opMulImm
		} else {
			out.op = opAddImm
		}
		out.c = in1.dst
		out.imm = in1.imm
		return out, true
	case in1.op == opMul && in2.op == opAdd && in1.n == in2.n:
		// a*b+c / c+a*b. The add must consume the product non-broadcast
		// (or be width 1, where broadcast is a no-op), and its other
		// operand must not partially overlap the product range — the fused
		// loop interleaves the component writes and reads.
		n := in1.n
		var other int32
		var addLeft bool
		switch {
		case in2.a == in1.dst && (in2.aux&1 == 0 || n == 1):
			other, addLeft = in2.b, true
		case in2.b == in1.dst && (in2.aux&2 == 0 || n == 1):
			other, addLeft = in2.a, false
		default:
			return instr{}, false
		}
		otherN := n
		if addLeft && in2.aux&2 != 0 || !addLeft && in2.aux&1 != 0 {
			otherN = 1
		}
		if other != in1.dst && rangesOverlap(in1.dst, n, other, otherN) {
			return instr{}, false
		}
		// The sum's destination must not overlap the product or the mul
		// operands: the original stream completes the whole multiply before
		// the add starts, while the fused loop interleaves them. Compile's
		// monotonic temp allocation never produces such overlap, but verify.
		an, bn := n, n
		if in1.aux&1 != 0 {
			an = 1
		}
		if in1.aux&2 != 0 {
			bn = 1
		}
		if rangesOverlap(in2.dst, n, in1.dst, n) ||
			rangesOverlap(in2.dst, n, in1.a, an) ||
			rangesOverlap(in2.dst, n, in1.b, bn) {
			return instr{}, false
		}
		// Operand registers stay below 1<<26 in any real program; packing
		// them beside the flag bits keeps the instr struct unchanged.
		if other >= 1<<26 {
			return instr{}, false
		}
		aux := in1.aux&3 | (in2.aux&3)<<2 | other<<5
		if addLeft {
			aux |= 1 << 4
		}
		return instr{op: opMulAdd, dst: in2.dst, a: in1.a, b: in1.b, c: in1.dst, n: n, aux: aux}, true
	}
	return instr{}, false
}

// straight reports whether code[pc+1:pc+n] exists and can only be entered
// by falling through from code[pc] (targets has one entry per pc, plus
// one for the end of the code).
func straight(targets []bool, pc, n int) bool {
	if pc+n >= len(targets) {
		return false
	}
	for k := 1; k < n; k++ {
		if targets[pc+k] {
			return false
		}
	}
	return true
}

func fuseRuns(c *Compiled) {
	targets := jumpTargets(c)
	old := c.code
	newCode := make([]instr, 0, len(old))
	oldToNew := make([]int32, len(old)+1)
	for pc := 0; pc < len(old); pc++ {
		oldToNew[pc] = int32(len(newCode))
		fused, n := fuseAt(c, old, targets, pc)
		if n == 0 {
			newCode = append(newCode, old[pc])
			continue
		}
		newCode = append(newCode, fused)
		for k := 1; k < n; k++ {
			oldToNew[pc+k] = int32(len(newCode) - 1)
		}
		pc += n - 1
	}
	oldToNew[len(old)] = int32(len(newCode))

	// Retarget control flow over the compacted stream.
	for i := range newCode {
		if branches(newCode[i].op) {
			newCode[i].aux = oldToNew[newCode[i].aux]
		}
	}
	c.initEntry = oldToNew[c.initEntry]
	c.mainEntry = oldToNew[c.mainEntry]
	for _, fi := range c.funcs {
		fi.entry = oldToNew[fi.entry]
	}
	c.code = newCode
}

// ---- Texel decode fusion ----

// texDecodeLen is the length of the run Compile emits for
// floor(texture2D(s, st) * K ± vec4(C)):
//
//	opTex2D   T = texel
//	opLoadImm k = K
//	opMul     M = T * k        (k broadcast)
//	opLoadImm c = C
//	opMov     x = c            (the vec4 constructor's argument)
//	opSplat   V = x
//	opSub     S = M - V        (or opAdd S = M + V)
//	opBFloor  F = floor(S)
const texDecodeLen = 8

// texDecode is the side entry of one opTexDecode site: the base of every
// register range the run writes (out is also the instruction's dst), and
// its constants. fwd is the variable the decoded vec4 is then stored in
// (vec4 x = decode(...)), or -1.
type texDecode struct {
	tex, k, mul, c, cmov, splat, sum, out int32
	fwd                                   int32
	kv, cv                                float32
	sub                                   bool
	tab                                   *decodeTable // the shape's table
}

// texDecodeAt matches run against the decode shape and returns its side
// entry. It refuses a shape no codec emits, and any run whose written
// ranges overlap: the fused op writes them in a different order than the
// run does.
func texDecodeAt(run []instr) (texDecode, bool) {
	tex, ld, mul, lc, mov, spl, sum, fl := &run[0], &run[1], &run[2], &run[3], &run[4], &run[5], &run[6], &run[7]
	if tex.op != opTex2D || ld.op != opLoadImm || lc.op != opLoadImm ||
		mul.op != opMul || mul.a != tex.dst || mul.b != ld.dst || mul.aux != 2 || mul.n != 4 ||
		mov.op != opMov || mov.a != lc.dst || mov.n != 1 ||
		spl.op != opSplat || spl.a != mov.dst || spl.n != 4 ||
		sum.op != opSub && sum.op != opAdd || sum.a != mul.dst || sum.b != spl.dst || sum.aux != 0 || sum.n != 4 ||
		fl.op != opBFloor || fl.a != sum.dst || fl.n != 4 {
		return texDecode{}, false
	}
	d := texDecode{
		tex: tex.dst, k: ld.dst, mul: mul.dst, c: lc.dst, cmov: mov.dst, splat: spl.dst, sum: sum.dst, out: fl.dst, fwd: -1,
		kv: ld.imm, cv: lc.imm, sub: sum.op == opSub,
	}
	d.tab = decodeTables[decodeShape{d.kv, d.cv, d.sub}]
	if d.tab == nil || d.overlaps() {
		return texDecode{}, false
	}
	return d, true
}

// writes lists the register ranges the fused op writes, {base, width}.
func (d *texDecode) writes() [8][2]int32 {
	return [8][2]int32{{d.tex, 4}, {d.k, 1}, {d.mul, 4}, {d.c, 1}, {d.cmov, 1}, {d.splat, 4}, {d.sum, 4}, {d.out, 4}}
}

func (d *texDecode) overlaps() bool {
	w := d.writes()
	for i := range w {
		for j := i + 1; j < len(w); j++ {
			if rangesOverlap(w[i][0], w[i][1], w[j][0], w[j][1]) {
				return true
			}
		}
	}
	return false
}

// decodeTable holds, for each byte b, the product, the sum and the floor
// the decode run computes from the texel value Unorm8(b).
type decodeTable struct {
	mul, sum, out [256]float32
}

// decodeShape is a decode's constants: floor(t*k - c) (sub) or
// floor(t*k + c).
type decodeShape struct {
	k, c float32
	sub  bool
}

// decodeTables holds the table of every vec4 decode the codecs emit
// (codec.GLSLDecoder): Int8x4's lanes, and the byte reconstruction that
// Int32, Uint32 and Float32 share. It is filled once, at package init,
// and only read afterwards, so the devices that compile concurrently
// share it without a lock, and no program binary can add to it.
var decodeTables = map[decodeShape]*decodeTable{
	{255, 127.5, true}: newDecodeTable(255, 127.5, true),
	{255, 0.5, false}:  newDecodeTable(255, 0.5, false),
}

// newDecodeTable computes the table of one shape. Each entry is the
// float32 operation the run performs, rounded by an explicit conversion
// so it is never contracted into an FMA.
func newDecodeTable(k, c float32, sub bool) *decodeTable {
	tab := &decodeTable{}
	for b := range tab.mul {
		m := float32(unorm8[b] * k)
		s := float32(m + c)
		if sub {
			s = float32(m - c)
		}
		tab.mul[b], tab.sum[b], tab.out[b] = m, s, float32(math.Floor(float64(s)))
	}
	return tab
}
