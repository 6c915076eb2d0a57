package shader

// Direct and fused forms of the bytecode. Compile chooses each one in the
// emitter that builds its shape, so no pass runs after it:
//
//  1. Direct builtins: the builtins on the codec decode→ALU→encode spine
//     (texture2D, floor, fract, mod, min, max, clamp, step, dot) compile to
//     their own opcodes, executed inline by the VM loop without the
//     descriptor load, the closure-based argument fetch and the builtin
//     switch of opBuiltin (emitBuiltin).
//  2. Immediate operands: a literal loaded just before the add, subtract or
//     multiply that reads it becomes that op's immediate (opAddImm,
//     opMulImm; v - K is v + -K), and a product the add reads just after it
//     is computed becomes opMulAdd (emitArith).
//  3. Compare-and-branch: a compare just computed for a conditional jump
//     becomes the branch (opBrLt..opBrGe), with an immediate operand loaded
//     just before it folded in (branchUnless); v += K just before a loop's
//     back edge folds into it (opLoopStep, loopBack).
//  4. Result into its variable: a statement that stores a result just
//     computed into its variable has the op that computed it write the
//     variable (move).
//  5. Texel decode: floor(t * K ± vec4(C)) over a fetch just emitted
//     becomes one opTexDecode, for the (K, C, ±) shapes the codecs emit
//     (texDecode). When the sampler serves the texel's bytes
//     (TextureSampler.Texel2D), the decode is a lookup in that shape's
//     256-entry table, built at package init by the same float32
//     operations; otherwise the op samples through Sample2D and does the
//     arithmetic inline.
//
// Correctness contract (same as compile.go): the program must be
// bit-identical, in outputs and Stats, to the one Compile emits without
// these forms.
//
//   - Stats come only from Compile's pending counts, whatever instructions
//     carry them: each straight-line region's counts are one table entry,
//     counted by the op that ends the region. A fused op that ends in a
//     branch counts the region its jump or back edge counted; every other
//     fused op lies inside one region.
//   - The watermark: a fused op writes only its result and the registers a
//     later instruction can read. Scratch temporaries grow monotonically
//     within a statement and are released at its end, so a temporary
//     allocated while the consuming expression compiles, at or above that
//     expression's tempTop mark, is never read after it (dead). A form is
//     chosen only when every register it leaves unwritten is such a
//     temporary. An inlined in parameter bound to its argument's temporary
//     lies below the mark of every expression of the body, so an op that
//     computed it keeps writing it.
//   - The fence: a fused form replaces the tail of the code emitted since
//     the last bound jump target (a label some jump uses, or a loop's
//     head), control transfer or opStats (compiler.fence). Nothing can
//     jump into that tail, so control never enters a fused op anywhere but
//     at its start, and no jump needs retargeting.
//   - A result written into its variable instead of a fresh temporary: lane
//     i of a lane-wise op reads lane i of each operand (lane 0 of a
//     broadcast one) before it writes lane i, so the variable gets the
//     same values unless an operand is overwritten before a later lane
//     reads it: a broadcast operand inside the destination, or an operand
//     that partially overlaps it. Either refuses the form.
//   - Direct builtins write every output component unconditionally, into a
//     fresh temporary allocated after every argument is evaluated, so no
//     argument aliases it and skipping execBuiltin's zero-the-destination
//     prologue is exact.
//   - Float32 addition and multiplication commute exactly, so an immediate
//     or a product may be either operand. opMulAdd rounds its product
//     through an explicit conversion so the Go compiler cannot contract
//     the multiply-add into an FMA.

import (
	"math"

	"glescompute/internal/glsl"
)

// Direct and fused opcodes, appended after the generic set (compile.go).
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
	opMulImm                        // regs[dst+i] = regs[a+i] * imm; aux bit0 broadcasts a
	opAddImm                        // regs[dst+i] = regs[a+i] + imm; aux bit0 broadcasts a
	opMulAdd                        // regs[dst+i] = regs[a+i]*regs[b+i] + regs[c+i]; aux bits 0/1/2 broadcast a/b/c
	opTexDecode                     // c..c+3 = texel(unit=regs[a], regs[b], regs[b+1]); dst..dst+3 = floor(texel * K ± C) of decodeTables[aux]
	opBrLt                          // count entry n; if !(regs[a] < y): pc = aux, where y = regs[b], or imm when b < 0
	opBrLe                          // as opBrLt with <=
	opBrGt                          // as opBrLt with >
	opBrGe                          // as opBrLt with >=
	opLoopStep                      // regs[a] += imm; then opLoopBack
)

// endsRegion reports whether op counts the stats region it ends (the
// table index in n).
func endsRegion(op opcode) bool {
	return branches(op) || op == opCall || op == opRet || op == opDiscard || op == opDiscardHalt
}

// branches reports whether op transfers control to aux.
func branches(op opcode) bool {
	switch op {
	case opJmp, opJz, opJnz, opLoopBack, opBrLt, opBrLe, opBrGt, opBrGe, opLoopStep:
		return true
	}
	return false
}

// rangesOverlap reports whether [a, a+an) and [b, b+bn) intersect.
func rangesOverlap(a, an, b, bn int32) bool {
	return a < b+bn && b < a+an
}

// tail returns the last n instructions when all of them were emitted since
// the fence, and nil otherwise.
func (cc *compiler) tail(n int) []instr {
	if len(cc.code)-n < int(cc.fence) {
		return nil
	}
	return cc.code[len(cc.code)-n:]
}

// dead reports whether every register in rs is a temporary allocated at or
// above mark, which nothing reads after the expression that set mark.
func (cc *compiler) dead(mark int32, rs ...int32) bool {
	for _, r := range rs {
		if r < cc.fn.tempBase+mark {
			return false
		}
	}
	return true
}

// emitBuiltin emits the call d describes: a direct opcode for the codec
// spine's builtins, opBuiltin with a descriptor for the others.
func (cc *compiler) emitBuiltin(d *builtinDesc) {
	var bc [3]int32 // argument k broadcasts
	for k, s := range d.scalar {
		if s {
			bc[k] = 1
		}
	}
	in := instr{dst: d.dst, a: d.args[0], b: d.args[1], n: d.nc, aux: bc[0] | bc[1]<<1}
	switch d.id {
	case glsl.BTexture2D, glsl.BTexture2DBias, glsl.BTexture2DLod:
		// The fetch reads one unit register and two coordinates, whatever
		// its bias or level.
		in = instr{op: opTex2D, dst: d.dst, a: d.args[0], b: d.args[1]}
	case glsl.BFloor:
		in = instr{op: opBFloor, dst: d.dst, a: d.args[0], n: d.nc}
	case glsl.BFract:
		in = instr{op: opBFract, dst: d.dst, a: d.args[0], n: d.nc}
	case glsl.BMod:
		in.op = opBMod
	case glsl.BMin:
		in.op = opBMin
	case glsl.BMax:
		in.op = opBMax
	case glsl.BStep:
		in.op = opBStep
	case glsl.BClamp:
		// clamp's first argument is the full-width genType; only the
		// bounds broadcast.
		in.op, in.c, in.aux = opBClamp, d.args[2], bc[1]|bc[2]<<1
	case glsl.BDot:
		in.op, in.n, in.aux = opBDot, d.an, 0
	default:
		cc.comp.builtins = append(cc.comp.builtins, *d)
		in = instr{op: opBuiltin, aux: int32(len(cc.comp.builtins) - 1)}
	}
	cc.emit(in)
}

// emitArith emits in, a componentwise arithmetic op whose operands were
// computed since mark, folding in the op that computed one of them just
// before: a literal an add, subtract or multiply reads becomes its
// immediate, and a product an add reads becomes opMulAdd. Neither the
// literal nor the product is written.
func (cc *compiler) emitArith(in instr, mark int32) {
	t := cc.tail(1)
	if t == nil || !cc.dead(mark, t[0].dst) || in.a == in.b {
		cc.emit(in)
		return
	}
	p := &t[0]
	// The operand p computed, and the other one with its broadcast bit.
	other, obc := in.b, in.aux>>1&1
	pbc := in.aux & 1
	switch p.dst {
	case in.a:
	case in.b:
		other, obc, pbc = in.a, in.aux&1, in.aux>>1&1
	default:
		cc.emit(in)
		return
	}
	switch {
	case p.op == opLoadImm && (in.op == opAdd || in.op == opMul || in.op == opSub && p.dst == in.b):
		f := instr{op: opAddImm, dst: in.dst, a: other, n: in.n, aux: obc, imm: p.imm}
		switch in.op {
		case opMul:
			f.op = opMulImm
		case opSub:
			f.imm = -p.imm
		}
		*p = f
	case p.op == opMul && in.op == opAdd && p.n == in.n && (pbc == 0 || in.n == 1):
		*p = instr{op: opMulAdd, dst: in.dst, a: p.a, b: p.b, c: other, n: in.n, aux: p.aux&3 | obc<<2}
	default:
		cc.emit(in)
	}
}

// compareBranch is the compare-and-branch of each compare, and the one
// that tests the same relation with the operands swapped.
var compareBranch = map[opcode][2]opcode{
	opLt: {opBrLt, opBrGt}, opLe: {opBrLe, opBrGe},
	opGt: {opBrGt, opBrLt}, opGe: {opBrGe, opBrLe},
}

// branchUnless ends the region with a jump to l taken when the bool in
// cond, computed since mark, is false. A compare that just computed cond
// becomes the branch, with an immediate operand loaded just before it
// folded in; neither the compare's result nor the immediate is written.
func (cc *compiler) branchUnless(cond, mark int32, l *label) {
	t := cc.tail(1)
	var ops [2]opcode
	ok := t != nil && t[0].dst == cond && cc.dead(mark, cond)
	if ok {
		ops, ok = compareBranch[t[0].op]
	}
	if !ok {
		cc.jump(instr{op: opJz, a: cond}, l)
		return
	}
	br := instr{op: ops[0], a: t[0].a, b: t[0].b}
	cc.code = cc.code[:len(cc.code)-1]
	if t := cc.tail(1); t != nil && t[0].op == opLoadImm && cc.dead(mark, t[0].dst) && br.a != br.b {
		switch t[0].dst {
		case br.a:
			br.op, br.a, br.b, br.imm = ops[1], br.b, -1, t[0].imm
			cc.code = cc.code[:len(cc.code)-1]
		case br.b:
			br.b, br.imm = -1, t[0].imm
			cc.code = cc.code[:len(cc.code)-1]
		}
	}
	cc.jump(br, l)
}

// move stores the n registers at src into to. When the op just emitted
// computed src, a temporary at or above mark, that op writes to instead,
// unless writing there would overwrite an operand before it is read. A
// negative mark keeps src written: its value is read again.
func (cc *compiler) move(to, src, n, mark int32) {
	if !cc.forward(to, src, n, mark) {
		cc.emit(instr{op: opMov, dst: to, a: src, n: n})
	}
}

// forward is move without the fallback: it reports whether the op just
// emitted now writes src's value into to.
func (cc *compiler) forward(to, src, n, mark int32) bool {
	t := cc.tail(1)
	if mark < 0 || t == nil || t[0].dst != src || to == src || !cc.dead(mark, src) {
		return false
	}
	p := &t[0]
	// Each register operand with its broadcast bit; the ops are lane-wise.
	var ops [][2]int32
	w := p.n
	switch p.op {
	case opLoadImm:
		w = 1
	case opAdd, opSub, opMul:
		ops = [][2]int32{{p.a, p.aux & 1}, {p.b, p.aux >> 1 & 1}}
	case opAddImm, opMulImm:
		ops = [][2]int32{{p.a, p.aux & 1}}
	case opMulAdd:
		ops = [][2]int32{{p.a, p.aux & 1}, {p.b, p.aux >> 1 & 1}, {p.c, p.aux >> 2 & 1}}
	case opTexDecode:
		// It reads its unit and coordinates before it writes anything, and
		// also writes the texel.
		if n != 4 || rangesOverlap(to, n, p.c, 4) {
			return false
		}
		p.dst = to
		return true
	default:
		return false
	}
	if w != n {
		return false
	}
	for _, o := range ops {
		w := n
		if o[1] != 0 {
			w = 1
		}
		if rangesOverlap(to, n, o[0], w) && (o[0] != to || w != n) {
			return false
		}
	}
	p.dst = to
	return true
}

// texDecode emits d, a vec4 floor whose argument was computed since mark,
// as one opTexDecode when the last six instructions compute that argument
// as a codec's decode of a fetch:
//
//	opTex2D   T = texel
//	opMulImm  M = T * K
//	opLoadImm c = C
//	opMov     x = c            (the vec4 constructor's argument)
//	opSplat   V = x
//	opSub     S = M - V        (or opAdd S = M + V)
//
// and every register but the texel's is dead. The texel stays written: an
// inlined decoder reads it through its parameter, which may be read again.
func (cc *compiler) texDecode(d *builtinDesc, mark int32) bool {
	r := cc.tail(6)
	if r == nil || d.nc != 4 {
		return false
	}
	tex, mul, lc, mov, spl, sum := r[0], r[1], r[2], r[3], r[4], r[5]
	if tex.op != opTex2D || mul.op != opMulImm || mul.a != tex.dst || mul.aux != 0 || mul.n != 4 ||
		lc.op != opLoadImm || mov.op != opMov || mov.a != lc.dst || mov.n != 1 ||
		spl.op != opSplat || spl.a != mov.dst || spl.n != 4 ||
		sum.op != opSub && sum.op != opAdd || sum.a != mul.dst || sum.b != spl.dst || sum.aux != 0 || sum.n != 4 ||
		d.args[0] != sum.dst || !cc.dead(mark, mul.dst, lc.dst, mov.dst, spl.dst, sum.dst) {
		return false
	}
	shape := decodeShape{mul.imm, lc.imm, sum.op == opSub}
	for i := range decodeTables {
		if decodeTables[i].decodeShape == shape {
			cc.code = cc.code[:len(cc.code)-len(r)]
			cc.emit(instr{op: opTexDecode, dst: d.dst, a: tex.a, b: tex.b, c: tex.dst, aux: int32(i)})
			return true
		}
	}
	return false
}

// decodeShape is a decode's constants: floor(t*k - c) (sub) or
// floor(t*k + c).
type decodeShape struct {
	k, c float32
	sub  bool
}

// decodeTable holds, for each byte b, the decode of the texel value
// Unorm8(b) in one shape.
type decodeTable struct {
	decodeShape
	out [256]float32
}

// decodeTables holds the table of every vec4 decode the codecs emit
// (codec.GLSLDecoder): Int8x4's lanes, and the byte reconstruction that
// Int32, Uint32 and Float32 share. An opTexDecode names its shape by index.
// It is filled once, at package init, and only read afterwards, so the
// devices that compile concurrently share it without a lock, and no
// program binary can add to it.
var decodeTables = [...]decodeTable{
	newDecodeTable(decodeShape{255, 127.5, true}),
	newDecodeTable(decodeShape{255, 0.5, false}),
}

// newDecodeTable computes the table of one shape. Each step is the float32
// operation the unfused decode performs, rounded by an explicit conversion
// so it is never contracted into an FMA.
func newDecodeTable(s decodeShape) decodeTable {
	tab := decodeTable{decodeShape: s}
	for b := range tab.out {
		tab.out[b] = s.decode(unorm8[b])
	}
	return tab
}

// decode computes floor(v*k ± c) as the unfused run does, one rounded
// float32 step at a time.
func (s *decodeShape) decode(v float32) float32 {
	m := float32(v * s.k)
	sum := float32(m + s.c)
	if s.sub {
		sum = float32(m - s.c)
	}
	return float32(math.Floor(float64(sum)))
}
