package shader

// This file lowers a checked GLSL ES program to a linear bytecode stream
// over a flat float32 register file — the "shader compiler" of the
// simulated device. The companion register machine in vm.go executes the
// stream with zero per-invocation heap allocation, replacing the
// tree-walking interpreter in the hot fragment path (the interpreter in
// interp.go/eval.go remains the reference implementation).
//
// Correctness contract: for every program, the VM must produce outputs
// that are bit-identical to the interpreter AND accumulate an identical
// Stats struct, because the vc4 timing model (and therefore every modeled
// speedup this repo reports) is derived from those counters. Operation
// counts are folded at compile time into a table of Stats deltas, one per
// straight-line region, and the VM only counts how often each region ran:
// every control transfer (branch, back edge, call, return, discard)
// carries the index of the region it ends in instr.n, and a region that
// falls through into a jump target ends in an opStats. The VM
// folds counts × deltas into its Stats when the draw reads them
// (VM.StatsRef), which is exact because both are integers.
//
// Compile also chooses the direct and fused forms of specialize.go as it
// emits each shape, with no pass afterwards. A fused op writes only its
// result and the registers a later instruction can read: it may leave a
// register unwritten only when that register is a temporary at or above
// the consuming expression's tempTop mark (the watermark), and it may
// replace only code emitted since the last jump target, control transfer
// or opStats (the fence).
//
// Register allocation is fully static: GLSL ES 1.00 forbids recursion (the
// checker enforces it), so every function's parameters, locals, scratch
// temporaries and return slot live at fixed offsets for the whole program.
// The same fact makes inlining simple: a small, loop-free, non-discarding
// function compiles as its body at each call site, over its own static
// frame and the caller's scratch area (see compileUserCall).
// Aggregates (arrays, structs, matrices) occupy contiguous runs of
// registers in Type.FlatSize order, matching the flattened layout the GLES
// pipeline uses for varyings.

import (
	"fmt"

	"glescompute/internal/glsl"
)

type opcode int32

const (
	opNop       opcode = iota
	opStats            // count one run of stats-table entry aux
	opJmp              // count entry n; pc = aux (forward only)
	opJz               // count entry n; if regs[a] == 0: pc = aux (forward only)
	opJnz              // count entry n; if regs[a] != 0: pc = aux (forward only)
	opCall             // count entry n; push pc+1; pc = funcEntry[aux]
	opRet              // count entry n; pop pc, or finish when the call stack is empty
	opDiscard          // count entry n; abort the invocation as discarded
	opLoopReset        // loopIters[aux] = 0; the next pc is the loop's head
	opLoopBack         // count entry n; loopIters[b]++ with runaway check; pc = aux (the head)
	opLoadImm          // regs[dst] = imm
	opZero             // regs[dst:dst+n] = 0
	opMov              // regs[dst:dst+n] = regs[a:a+n] (memmove semantics)
	opSplat            // regs[dst+i] = regs[a] for i < n
	opSwizLoad         // regs[dst+i] = regs[a+swz[i]] (swz packed in aux)
	opSwizStore        // regs[dst+swz[i]] = regs[a+i]
	opLoadInd          // regs[dst:dst+n] = regs[addr:addr+n], addr = int(regs[a])
	opStoreInd         // regs[addr:addr+n] = regs[b:b+n], addr = int(regs[a])
	opLoadIndC         // regs[dst+i] = regs[int(regs[a])+swz[i]]
	opStoreIndC        // regs[int(regs[a])+swz[i]] = regs[b+i]
	opDynAddr          // regs[dst] = base + clamp(trunc(regs[a]), aux)*n; base = regs[b] or c
	opDynPick          // regs[dst] = base + swz[clamp(trunc(regs[a]), limit)] (packed aux)
	opAddrOff          // regs[dst] = regs[a] + n
	opAdd              // componentwise; aux bit0/bit1 broadcast scalar a/b
	opSub
	opMul
	opDivF
	opDivI // trunc-toward-zero, x/0 = 0 (GLSL int semantics)
	opNeg
	opNot      // regs[dst] = regs[a]==0 ? 1 : 0
	opBoolNorm // regs[dst] = regs[a]!=0 ? 1 : 0
	opXorXor
	opLt // scalar compares on component 0
	opLe
	opGt
	opGe
	opEqV // regs[dst] = 1 if regs[a:a+n] == regs[b:b+n]
	opNeV
	opConvInt  // trunc toward zero per component
	opConvBool // !=0 → 1 per component
	opMatDiag  // zero n×n then diagonal = regs[a]
	opMatMulMM // n = dim
	opMatMulMV
	opMatMulVM
	opBuiltin     // aux = builtin descriptor index
	opDiscardTake // regs[dst] = pending-discard flag; clear the flag
	opDiscardHalt // count entry n; if regs[a] != 0: finish the invocation as discarded
)

// instr is one VM instruction. All operands are absolute register indices
// into the flat register file; n is a component count, aux carries
// opcode-specific payload (jump target, packed swizzle, table index).
type instr struct {
	op  opcode
	dst int32
	a   int32
	b   int32
	c   int32
	n   int32
	aux int32
	imm float32
}

// builtinDesc is the static call descriptor for one opBuiltin site.
type builtinDesc struct {
	id     glsl.BuiltinID
	dst    int32
	args   [3]int32
	scalar [3]bool // argument k broadcasts its scalar (GLSL genType rules)
	nargs  int32
	nc     int32 // result component count
	an     int32 // argument-0 component count (geometric builtins)
	dim    int32 // matrix dimension (matrixCompMult)
}

// funcInfo records the static frame of one function and what the inliner
// knows about it.
type funcInfo struct {
	fd       *glsl.FuncDecl
	index    int32 // position in Compiled.funcs; -1 when every call is inlined
	entry    int32
	retBase  int32
	retSize  int32
	localOff []int32 // local slot -> register base
	tempBase int32
	tempMax  int32

	// Inliner facts, filled once by discover.
	inline   bool   // calls compile as the body at the call site
	discards bool   // can discard, directly or through a callee
	pure     bool   // writes only its own frame, directly and through its callees
	size     int    // AST nodes, counting inlined callees' bodies
	returns  int    // return statements in the body
	written  []bool // by parameter index: the body writes the parameter
}

// inlineBudget is the most AST nodes an inlined call may expand to,
// counting the bodies of the callees inlined into it. It keeps compile time
// and code size linear in the source however deeply small functions nest,
// and admits every codec helper the compute runtime generates (the float32
// encoder is the largest, at 131 nodes).
const inlineBudget = 160

// Compiled is an executable lowering of one shader program. It is immutable
// after Compile and safe to share between VMs (each draw worker gets its
// own VM over the same Compiled).
type Compiled struct {
	Prog *glsl.Program

	code      []instr
	initEntry int32
	mainEntry int32

	stats    []Stats    // per-region Stats deltas, counted by index
	poss     []glsl.Pos // by loop id: the loop's position, for runaway errors
	builtins []builtinDesc

	nregs      int32
	globalBase int32
	globalEnd  int32
	globalOff  []int32 // by VarDecl.Slot
	builtinOff [glsl.NumBuiltinSlots]int32

	// mutatedRanges are the register ranges of globals written anywhere in
	// the program; the VM restores them from the snapshot between runs,
	// mirroring the interpreter's mutatedGlobals reset.
	mutatedRanges [][2]int32

	funcs    []*funcInfo
	maxDepth int32
}

// NumRegisters reports the size of the register file (diagnostics).
func (c *Compiled) NumRegisters() int { return int(c.nregs) }

// CodeLen reports the instruction count (diagnostics).
func (c *Compiled) CodeLen() int { return len(c.code) }

// Callees names the callee of every call instruction left in the code, in
// code order (diagnostics: every other user call was inlined). A program
// read back from a binary has no function names and reports "".
func (c *Compiled) Callees() []string {
	var names []string
	for _, in := range c.code {
		if in.op == opCall {
			name := ""
			if fd := c.funcs[in.aux].fd; fd != nil {
				name = fd.Name
			}
			names = append(names, name)
		}
	}
	return names
}

// Fetches counts the 2D texel fetches in the code, and how many of them
// are fused with a vec4 codec decode into one opTexDecode (diagnostics).
func (c *Compiled) Fetches() (fused, total int) {
	for _, in := range c.code {
		switch in.op {
		case opTexDecode:
			fused++
			total++
		case opTex2D:
			total++
		case opBuiltin:
			switch c.builtins[in.aux].id {
			case glsl.BTexture2D, glsl.BTexture2DBias, glsl.BTexture2DLod,
				glsl.BTexture2DProj3, glsl.BTexture2DProj4, glsl.BTexture2DProjLod3, glsl.BTexture2DProjLod4:
				total++
			}
		}
	}
	return fused, total
}

// LoopTrip describes one trip around an innermost loop when no
// conditional body inside the loop runs (diagnostics): the path from the
// loop's head to its back edge that takes every forward branch staying
// inside the loop and falls through every other.
type LoopTrip struct {
	Instrs int // instructions on the path, the back edge included
	Stats  int // how many of them are opStats
}

// LoopTrips reports the trip of every innermost loop, in code order.
func (c *Compiled) LoopTrips() []LoopTrip {
	var trips []LoopTrip
	for back, in := range c.code {
		if in.op != opLoopBack && in.op != opLoopStep {
			continue
		}
		head, inner := in.aux, true
		for pc := head; pc < int32(back); pc++ {
			if op := c.code[pc].op; op == opLoopBack || op == opLoopStep {
				inner = false
			}
		}
		if !inner {
			continue
		}
		if t, ok := c.trip(head, int32(back)); ok {
			trips = append(trips, t)
		}
	}
	return trips
}

// trip walks one trip from head to the back edge at back; ok is false
// when the walk leaves the loop instead.
func (c *Compiled) trip(head, back int32) (t LoopTrip, ok bool) {
	for pc := head; ; {
		in := &c.code[pc]
		t.Instrs++
		if in.op == opStats {
			t.Stats++
		}
		switch {
		case pc == back:
			return t, true
		case branches(in.op) && in.aux > pc && in.aux <= back:
			pc = in.aux
		case terminates(in.op):
			return t, false
		default:
			pc++
		}
	}
}

// compileError aborts compilation via panic/recover; Compile converts it
// into an error. Post-sema programs should never hit these — they guard
// against constructs the lowerer does not model.
type compileError struct{ err error }

type compiler struct {
	comp *Compiled
	prog *glsl.Program

	code    []instr
	pending Stats
	statIdx map[Stats]int32
	// fence is the first pc a fused form may rewrite: nothing jumps into
	// the code from there on (specialize.go).
	fence int32

	fn      *funcInfo // frame whose scratch area temps come from
	tempTop int32
	locals  []int32     // local slot -> register of the body being emitted
	inl     *inlineSite // the inlined call being emitted, if any
	frames  map[*glsl.FuncDecl]*funcInfo
	order   []*funcInfo // reachable functions in discovery order
	mutated []bool      // by global slot: some reachable function writes it
	loops   []loopCtx
}

// inlineSite is a call being compiled as its callee's body.
type inlineSite struct {
	result int32            // register base of the call's value
	size   int32            // flat size of the value
	tail   *glsl.ReturnStmt // the body's last statement, when it returns
	end    *label
}

type loopCtx struct {
	breakL    *label
	continueL *label
}

type label struct {
	pc    int32
	fixes []int32
}

func (cc *compiler) fail(pos glsl.Pos, format string, args ...interface{}) {
	panic(compileError{fmt.Errorf("shader compile at %s: %s", pos, fmt.Sprintf(format, args...))})
}

// Compile lowers a checked program to bytecode. It returns an error for
// constructs the lowerer cannot model (callers fall back to the AST
// interpreter).
func Compile(prog *glsl.Program) (c *Compiled, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(compileError); ok {
				c, err = nil, ce.err
				return
			}
			panic(r)
		}
	}()
	if prog.Entry == nil || prog.Entry.Body == nil {
		return nil, fmt.Errorf("shader compile: program has no entry point")
	}
	c = &Compiled{Prog: prog}
	cc := &compiler{comp: c, prog: prog, statIdx: map[Stats]int32{}, frames: map[*glsl.FuncDecl]*funcInfo{}}

	// Register layout: builtin slots first, then globals, then per-function
	// frames (locals, plus a return slot for each function that stays a
	// call), then per-function scratch areas.
	cc.layoutBuiltins()
	cc.layoutGlobals()

	// Every function reachable from main or a global initializer, in
	// discovery order (main first).
	cc.mutated = make([]bool, len(prog.Globals))
	cc.discover(prog.Entry)
	for _, g := range prog.Globals {
		if g.Init != nil && g.ConstVal == nil {
			walk(g.Init, func(n glsl.Node) bool {
				if call, ok := n.(*glsl.CallExpr); ok && call.Kind == glsl.CallUser {
					cc.discover(call.Func)
				}
				return true
			})
		}
	}
	// Only main and the functions that stay calls get a standalone body
	// and a return slot; every call to the others is inlined.
	for _, fi := range cc.order {
		if fi.inline {
			continue
		}
		fi.index = int32(len(c.funcs))
		c.funcs = append(c.funcs, fi)
		fi.retBase = c.nregs
		c.nregs += fi.retSize
	}
	c.maxDepth = int32(len(c.funcs)) + 2

	// Compile every function body, then the global-init segment. Each gets
	// its own scratch area appended after compilation (the high-water mark
	// is only known afterwards).
	for _, fi := range c.funcs {
		cc.compileFunction(fi)
	}
	cc.compileInit()

	c.code = cc.code
	cc.buildMutatedRanges()
	return c, nil
}

func (cc *compiler) layoutBuiltins() {
	c := cc.comp
	if cc.prog.Stage == glsl.StageVertex {
		c.builtinOff[glsl.BVSlotPosition] = c.nregs
		c.nregs += 4
		c.builtinOff[glsl.BVSlotPointSize] = c.nregs
		c.nregs++
	} else {
		c.builtinOff[glsl.BVSlotFragCoord] = c.nregs
		c.nregs += 4
		c.builtinOff[glsl.BVSlotFrontFacing] = c.nregs
		c.nregs++
		c.builtinOff[glsl.BVSlotPointCoord] = c.nregs
		c.nregs += 2
		c.builtinOff[glsl.BVSlotFragColor] = c.nregs
		c.nregs += 4
		c.builtinOff[glsl.BVSlotFragData] = c.nregs
		c.nregs += 4 * glsl.MaxDrawBuffers
	}
}

func (cc *compiler) layoutGlobals() {
	c := cc.comp
	c.globalBase = c.nregs
	c.globalOff = make([]int32, len(cc.prog.Globals))
	for i, g := range cc.prog.Globals {
		c.globalOff[i] = c.nregs
		c.nregs += flatSize(g.DeclType)
		if g.Slot != i {
			cc.fail(g.Pos, "global %q slot %d out of order", g.Name, g.Slot)
		}
	}
	c.globalEnd = c.nregs
}

// layoutLocals assigns a register base to every local slot of fd.
func (cc *compiler) layoutLocals(fd *glsl.FuncDecl) []int32 {
	decls := make([]*glsl.VarDecl, fd.LocalSize)
	for _, p := range fd.Params {
		decls[p.Slot] = p
	}
	walk(fd.Body, func(n glsl.Node) bool {
		switch n := n.(type) {
		case *glsl.DeclStmt:
			for _, v := range n.Vars {
				decls[v.Slot] = v
			}
		case glsl.Expr:
			return false // declarations are statements
		}
		return true
	})
	off := make([]int32, fd.LocalSize)
	for i, d := range decls {
		off[i] = cc.comp.nregs
		size := int32(1)
		if d != nil {
			size = flatSize(d.DeclType)
		}
		cc.comp.nregs += size
	}
	return off
}

// discover returns fd's frame, creating it on first sight: it lays out
// fd's locals and fills the inliner facts, discovering fd's callees as
// their calls are met. It also records the globals fd writes.
func (cc *compiler) discover(fd *glsl.FuncDecl) *funcInfo {
	if fd == nil {
		cc.fail(glsl.Pos{}, "call to an unresolved function")
	}
	if fi := cc.frames[fd]; fi != nil {
		return fi
	}
	if fd.Body == nil {
		// Called through a prototype that is never defined — a link
		// error in GLSL ES, and nothing to lay out.
		cc.fail(fd.Pos, "function %q is called but never defined", fd.Name)
	}
	fi := &funcInfo{fd: fd, index: -1, retSize: flatSize(fd.Ret), localOff: cc.layoutLocals(fd)}
	cc.frames[fd] = fi
	cc.order = append(cc.order, fi)
	fi.written = make([]bool, len(fd.Params))
	fi.pure = true
	for _, p := range fd.Params {
		fi.pure = fi.pure && p.Dir == glsl.DirIn
	}
	mark := func(id *glsl.Ident) {
		switch {
		case id.Ref == nil:
			fi.pure = fi.pure && id.BRef == nil
		case id.Ref.Storage == glsl.StorageGlobal:
			cc.mutated[id.Ref.Slot] = true
			fi.pure = false
		default:
			for i, p := range fd.Params {
				if id.Ref == p {
					fi.written[i] = true
				}
			}
		}
	}
	loops := false
	walk(fd.Body, func(n glsl.Node) bool {
		fi.size++
		writeRoots(n, mark)
		switch n := n.(type) {
		case *glsl.ForStmt, *glsl.WhileStmt, *glsl.DoWhileStmt:
			loops = true
		case *glsl.DiscardStmt:
			fi.discards = true
		case *glsl.ReturnStmt:
			fi.returns++
		case *glsl.CallExpr:
			if n.Kind == glsl.CallUser {
				callee := cc.discover(n.Func)
				fi.discards = fi.discards || callee.discards
				fi.pure = fi.pure && callee.pure
				if callee.inline {
					fi.size += callee.size
				}
			}
		}
		return true
	})
	fi.inline = fd != cc.prog.Entry && !loops && !fi.discards && fi.size <= inlineBudget
	return fi
}

// ---- Emission helpers ----

func (cc *compiler) emit(in instr) int32 {
	cc.code = append(cc.code, in)
	if endsRegion(in.op) || in.op == opStats {
		cc.fence = int32(len(cc.code))
	}
	return int32(len(cc.code) - 1)
}

// takeStats ends the current region: it returns the stats-table index of
// the counts pending since the last region ended (the all-zero entry when
// there are none) and starts a new region.
func (cc *compiler) takeStats() int32 {
	idx, ok := cc.statIdx[cc.pending]
	if !ok {
		idx = int32(len(cc.comp.stats))
		cc.comp.stats = append(cc.comp.stats, cc.pending)
		cc.statIdx[cc.pending] = idx
	}
	cc.pending = Stats{}
	return idx
}

// flushStats ends the current region with an opStats, unless it counted
// nothing. Control transfers end theirs themselves (takeStats).
func (cc *compiler) flushStats() {
	if cc.pending != (Stats{}) {
		cc.emit(instr{op: opStats, aux: cc.takeStats()})
	}
}

func (cc *compiler) newLabel() *label { return &label{pc: -1} }

// bind places l at the next pc. A label some jump targets starts a region,
// so the fallthrough's counts are flushed first; a label nothing jumps to
// (a for loop's post without a continue) is no boundary. Loop heads, the
// only labels jumped to after binding, are bound right after the loop's
// opLoopReset (see loopHead).
func (cc *compiler) bind(l *label) {
	if len(l.fixes) > 0 {
		cc.flushStats()
		cc.fence = int32(len(cc.code))
	}
	l.pc = int32(len(cc.code))
	for _, at := range l.fixes {
		cc.code[at].aux = l.pc
	}
	l.fixes = nil
}

// jump emits in, a forward branch to l that ends the current region.
func (cc *compiler) jump(in instr, l *label) {
	in.n, in.aux = cc.takeStats(), l.pc
	at := cc.emit(in)
	if l.pc < 0 {
		l.fixes = append(l.fixes, at)
	}
}

// loopHead opens a loop at pos: it ends the region before the loop, resets
// the loop's counter and returns the loop's id and its head, which the
// loop's single back edge (loopBack) targets.
func (cc *compiler) loopHead(pos glsl.Pos) (int32, *label) {
	id := int32(len(cc.comp.poss))
	cc.comp.poss = append(cc.comp.poss, pos)
	cc.flushStats()
	cc.emit(instr{op: opLoopReset, aux: id})
	head := cc.newLabel()
	cc.bind(head)
	cc.fence = head.pc
	return id, head
}

// loopBack emits loop id's back edge, which ends the current region and
// runs the loop's runaway guard: the interpreter checks it before every
// iteration after the first, which is every arrival over a back edge. An
// increment v += K just before it folds into it (opLoopStep).
func (cc *compiler) loopBack(id int32, head *label) {
	back := instr{op: opLoopBack, b: id}
	if t := cc.tail(1); t != nil && t[0].op == opAddImm && t[0].n == 1 && t[0].dst == t[0].a {
		back = instr{op: opLoopStep, a: t[0].a, b: id, imm: t[0].imm}
		cc.code = cc.code[:len(cc.code)-1]
	}
	back.n, back.aux = cc.takeStats(), head.pc
	cc.emit(back)
}

// temp allocates n scratch registers in the current frame. Temporaries
// grow monotonically within a statement and compileStmt releases them at
// its end: the watermark the fused forms rely on (specialize.go).
func (cc *compiler) temp(n int32) int32 {
	r := cc.fn.tempBase + cc.tempTop
	cc.tempTop += n
	if cc.tempTop > cc.fn.tempMax {
		cc.fn.tempMax = cc.tempTop
	}
	return r
}

func flatSize(t *glsl.Type) int32 {
	if t == nil || t.Kind == glsl.KVoid {
		return 0
	}
	return int32(t.FlatSize())
}

func compCount(t *glsl.Type) int32 { return int32(t.ComponentCount()) }

// fieldOffset is the flat offset of field idx inside struct type t.
func fieldOffset(t *glsl.Type, idx int) int32 {
	var off int32
	for i := 0; i < idx; i++ {
		off += flatSize(t.Struct.Fields[i].Type)
	}
	return off
}

func packSwz(swz []int) int32 {
	var p int32
	for i, s := range swz {
		p |= int32(s) << (4 * i)
	}
	return p
}

// ---- Function compilation ----

func (cc *compiler) compileFunction(fi *funcInfo) {
	cc.fn = fi
	cc.locals = fi.localOff
	cc.tempTop = 0
	fi.tempBase = cc.comp.nregs
	fi.entry = int32(len(cc.code))
	if fi.retSize > 0 {
		// Falling off the end of a value-returning function yields the
		// zero value, like the interpreter's hasRet handling.
		cc.emit(instr{op: opZero, dst: fi.retBase, n: fi.retSize})
	}
	cc.compileStmt(fi.fd.Body)
	cc.emit(instr{op: opRet, n: cc.takeStats()})
	cc.comp.nregs = fi.tempBase + fi.tempMax
	if fi.fd == cc.prog.Entry {
		cc.comp.mainEntry = fi.entry
	}
}

// compileInit emits the global-initializer segment (the code InitGlobals
// runs once per executor, with the same Stats accounting as the
// interpreter's InitGlobals).
func (cc *compiler) compileInit() {
	fi := &funcInfo{fd: cc.prog.Entry} // pseudo-frame for scratch space
	cc.fn = fi
	cc.locals = nil
	cc.tempTop = 0
	fi.tempBase = cc.comp.nregs
	cc.comp.initEntry = int32(len(cc.code))
	for i, g := range cc.prog.Globals {
		if g.Init == nil {
			continue
		}
		base := cc.comp.globalOff[i]
		size := flatSize(g.DeclType)
		if g.ConstVal != nil {
			// FromConst: folded components, zero-padded — no stats.
			for k := int32(0); k < size; k++ {
				var v float32
				if int(k) < len(g.ConstVal.F) {
					v = g.ConstVal.F[k]
				}
				cc.emit(instr{op: opLoadImm, dst: base + k, imm: v})
			}
			continue
		}
		mark := cc.tempTop
		r, _ := cc.compileExpr(g.Init)
		cc.move(base, r, size, mark)
	}
	cc.emit(instr{op: opRet, n: cc.takeStats()})
	cc.comp.nregs = fi.tempBase + fi.tempMax
}

// buildMutatedRanges lists the globals some reachable function writes,
// mirroring the interpreter's MutatedGlobalSlots (unreachable code never
// runs, so it cannot dirty a global).
func (cc *compiler) buildMutatedRanges() {
	for slot, written := range cc.mutated {
		if !written {
			continue
		}
		off := cc.comp.globalOff[slot]
		size := flatSize(cc.prog.Globals[slot].DeclType)
		if size > 0 {
			cc.comp.mutatedRanges = append(cc.comp.mutatedRanges, [2]int32{off, size})
		}
	}
}

// varReg returns the register base of a resolved variable reference.
func (cc *compiler) varReg(n *glsl.Ident) int32 {
	if n.BRef != nil {
		return cc.comp.builtinOff[n.BRef.Slot]
	}
	if n.Ref == nil {
		cc.fail(n.Pos, "unresolved identifier %q", n.Name)
	}
	if n.Ref.Storage == glsl.StorageGlobal {
		return cc.comp.globalOff[n.Ref.Slot]
	}
	if cc.locals == nil {
		cc.fail(n.Pos, "local %q used outside a function frame", n.Name)
	}
	return cc.locals[n.Ref.Slot]
}

// ---- Statements ----

func (cc *compiler) compileStmt(s glsl.Stmt) {
	mark := cc.tempTop
	defer func() { cc.tempTop = mark }()
	switch n := s.(type) {
	case *glsl.BlockStmt:
		for _, st := range n.Stmts {
			cc.compileStmt(st)
		}
	case *glsl.DeclStmt:
		for _, v := range n.Vars {
			dst := cc.locals[v.Slot]
			size := flatSize(v.DeclType)
			if v.Init == nil {
				cc.emit(instr{op: opZero, dst: dst, n: size})
				continue
			}
			sub := cc.tempTop
			r, _ := cc.compileExpr(v.Init)
			cc.pending.Mov += uint64(v.DeclType.ComponentCount())
			cc.move(dst, r, size, sub)
			cc.tempTop = sub
		}
	case *glsl.ExprStmt:
		cc.compileEffect(n.X)
	case *glsl.EmptyStmt:
	case *glsl.IfStmt:
		cond, _ := cc.compileExpr(n.Cond)
		cc.pending.Branch++
		elseL := cc.newLabel()
		endL := cc.newLabel()
		cc.branchUnless(cond, mark, elseL)
		cc.compileStmt(n.Then)
		if n.Else != nil {
			cc.jump(instr{op: opJmp}, endL)
			cc.bind(elseL)
			cc.compileStmt(n.Else)
			cc.bind(endL)
		} else {
			cc.bind(elseL)
		}
	case *glsl.ForStmt:
		if n.InitStmt != nil {
			cc.compileStmt(n.InitStmt)
		}
		loopID, head := cc.loopHead(n.Pos)
		post, exit := cc.newLabel(), cc.newLabel()
		if n.Cond != nil {
			cond, _ := cc.compileExpr(n.Cond)
			cc.pending.Branch++
			cc.branchUnless(cond, mark, exit)
		}
		cc.loops = append(cc.loops, loopCtx{breakL: exit, continueL: post})
		cc.compileStmt(n.Body)
		cc.loops = cc.loops[:len(cc.loops)-1]
		cc.bind(post)
		if n.Post != nil {
			cc.compileEffect(n.Post)
		}
		cc.loopBack(loopID, head)
		cc.bind(exit)
	case *glsl.WhileStmt:
		loopID, head := cc.loopHead(n.Pos)
		cont, exit := cc.newLabel(), cc.newLabel()
		cond, _ := cc.compileExpr(n.Cond)
		cc.pending.Branch++
		cc.branchUnless(cond, mark, exit)
		cc.loops = append(cc.loops, loopCtx{breakL: exit, continueL: cont})
		cc.compileStmt(n.Body)
		cc.loops = cc.loops[:len(cc.loops)-1]
		cc.bind(cont)
		cc.loopBack(loopID, head)
		cc.bind(exit)
	case *glsl.DoWhileStmt:
		loopID, head := cc.loopHead(n.Pos)
		condL, exit := cc.newLabel(), cc.newLabel()
		cc.loops = append(cc.loops, loopCtx{breakL: exit, continueL: condL})
		cc.compileStmt(n.Body)
		cc.loops = cc.loops[:len(cc.loops)-1]
		cc.bind(condL)
		cond, _ := cc.compileExpr(n.Cond)
		cc.pending.Branch++
		cc.branchUnless(cond, mark, exit)
		cc.loopBack(loopID, head)
		cc.bind(exit)
	case *glsl.ReturnStmt:
		if site := cc.inl; site != nil {
			// An inlined return stores the call's value and leaves the
			// body; in tail position it just falls through.
			if n.X != nil {
				r, _ := cc.compileExpr(n.X)
				cc.move(site.result, r, site.size, mark)
			}
			if n != site.tail {
				cc.jump(instr{op: opJmp}, site.end)
			}
			return
		}
		if n.X != nil {
			r, _ := cc.compileExpr(n.X)
			cc.move(cc.fn.retBase, r, cc.fn.retSize, mark)
		}
		cc.emit(instr{op: opRet, n: cc.takeStats()})
	case *glsl.BreakStmt:
		if len(cc.loops) == 0 {
			cc.fail(n.NodePos(), "break outside loop")
		}
		cc.jump(instr{op: opJmp}, cc.loops[len(cc.loops)-1].breakL)
	case *glsl.ContinueStmt:
		if len(cc.loops) == 0 {
			cc.fail(n.NodePos(), "continue outside loop")
		}
		cc.jump(instr{op: opJmp}, cc.loops[len(cc.loops)-1].continueL)
	case *glsl.DiscardStmt:
		cc.emit(instr{op: opDiscard, n: cc.takeStats()})
	default:
		cc.fail(s.NodePos(), "unknown statement %T", s)
	}
}

// ---- Expressions ----

// hasSideEffects reports whether evaluating e can mutate variable storage
// (assignments, increments, or calls to user functions that write a
// global, a builtin or an out parameter). Used to decide when an operand
// read from variable storage must be materialized before a sibling runs.
// A pure callee writes only its own static frame and scratch, which no
// caller's variable shares: GLSL ES has no recursion.
func (cc *compiler) hasSideEffects(e glsl.Expr) bool {
	return anyNode(e, func(n glsl.Node) bool {
		switch n := n.(type) {
		case *glsl.AssignExpr:
			return true
		case *glsl.UnaryExpr:
			return n.Op == glsl.TokInc || n.Op == glsl.TokDec
		case *glsl.CallExpr:
			if n.Kind != glsl.CallUser {
				return false
			}
			fi := cc.frames[n.Func]
			return fi == nil || !fi.pure
		}
		return false
	})
}

// containsUserCall reports whether e contains any user function call.
func containsUserCall(e glsl.Expr) bool {
	return anyNode(e, func(n glsl.Node) bool {
		c, ok := n.(*glsl.CallExpr)
		return ok && c.Kind == glsl.CallUser
	})
}

// materialize copies a direct-storage operand into a scratch temp so later
// side effects cannot change the already-evaluated value.
func (cc *compiler) materialize(reg int32, direct bool, size int32) int32 {
	if !direct {
		return reg
	}
	t := cc.temp(size)
	cc.emit(instr{op: opMov, dst: t, a: reg, n: size})
	return t
}

// compileExpr emits code computing e and returns the register base holding
// its flattened value. direct reports that the register is live variable
// storage (not a scratch temp), so callers must respect evaluation-order
// hazards before reusing it.
func (cc *compiler) compileExpr(e glsl.Expr) (reg int32, direct bool) {
	switch n := e.(type) {
	case *glsl.IntLit:
		t := cc.temp(1)
		cc.emit(instr{op: opLoadImm, dst: t, imm: float32(n.Val)})
		return t, false
	case *glsl.FloatLit:
		t := cc.temp(1)
		cc.emit(instr{op: opLoadImm, dst: t, imm: n.Val})
		return t, false
	case *glsl.BoolLit:
		t := cc.temp(1)
		var v float32
		if n.Val {
			v = 1
		}
		cc.emit(instr{op: opLoadImm, dst: t, imm: v})
		return t, false
	case *glsl.Ident:
		return cc.varReg(n), true
	case *glsl.BinaryExpr:
		return cc.compileBinary(n)
	case *glsl.UnaryExpr:
		return cc.compileUnary(n)
	case *glsl.CondExpr:
		mark := cc.tempTop
		cond, _ := cc.compileExpr(n.Cond)
		cc.pending.Select += uint64(n.Type().ComponentCount())
		size := flatSize(n.Type())
		out := cc.temp(size)
		elseL, endL := cc.newLabel(), cc.newLabel()
		cc.branchUnless(cond, mark, elseL)
		mark = cc.tempTop
		tr, _ := cc.compileExpr(n.Then)
		cc.emit(instr{op: opMov, dst: out, a: tr, n: size})
		cc.jump(instr{op: opJmp}, endL)
		cc.bind(elseL)
		cc.tempTop = mark // branches are exclusive; share scratch space
		er, _ := cc.compileExpr(n.Else)
		cc.emit(instr{op: opMov, dst: out, a: er, n: size})
		cc.bind(endL)
		return out, false
	case *glsl.AssignExpr:
		return cc.compileAssign(n, true)
	case *glsl.SequenceExpr:
		cc.compileExpr(n.X)
		return cc.compileExpr(n.Y)
	case *glsl.CallExpr:
		return cc.compileCall(n)
	case *glsl.FieldExpr:
		return cc.compileField(n)
	case *glsl.IndexExpr:
		return cc.compileIndex(n)
	}
	cc.fail(e.NodePos(), "unknown expression %T", e)
	return 0, false
}

func (cc *compiler) compileField(n *glsl.FieldExpr) (int32, bool) {
	x, xdir := cc.compileExpr(n.X)
	if n.Swizzle != nil {
		if contiguous(n.Swizzle) {
			// .x, .xy, .gba, ...: the components are already adjacent, so
			// read them in place (the interpreter still counts the moves).
			cc.pending.Mov += uint64(len(n.Swizzle))
			return x + int32(n.Swizzle[0]), xdir
		}
		out := cc.temp(int32(len(n.Swizzle)))
		cc.emit(instr{op: opSwizLoad, dst: out, a: x, n: int32(len(n.Swizzle)), aux: packSwz(n.Swizzle)})
		cc.pending.Mov += uint64(len(n.Swizzle))
		return out, false
	}
	xt := n.X.Type()
	if xt.Kind != glsl.KStruct || n.FieldIndex < 0 || n.FieldIndex >= len(xt.Struct.Fields) {
		cc.fail(n.Pos, "field index out of range")
	}
	return x + fieldOffset(xt, n.FieldIndex), xdir
}

func (cc *compiler) compileIndex(n *glsl.IndexExpr) (int32, bool) {
	x, xdir := cc.compileExpr(n.X)
	xt := n.X.Type()
	if xdir && cc.hasSideEffects(n.Index) {
		// The interpreter evaluates x to a value before the index runs.
		x = cc.materialize(x, true, flatSize(xt))
		xdir = false
	}
	if lit, ok := n.Index.(*glsl.IntLit); ok {
		idx := clampIndex(int(lit.Val), indexLimit(xt))
		switch {
		case xt.Kind == glsl.KArray:
			return x + int32(idx)*flatSize(xt.Elem), xdir
		case xt.IsVector():
			out := cc.temp(1)
			cc.emit(instr{op: opMov, dst: out, a: x + int32(idx), n: 1})
			cc.pending.Mov++
			return out, false
		case xt.IsMatrix():
			dim := int32(xt.MatrixDim())
			out := cc.temp(dim)
			cc.emit(instr{op: opMov, dst: out, a: x + int32(idx)*dim, n: dim})
			cc.pending.Mov += uint64(dim)
			return out, false
		}
		cc.fail(n.Pos, "type %s is not indexable", xt)
	}
	idxReg, _ := cc.compileExpr(n.Index)
	switch {
	case xt.Kind == glsl.KArray:
		stride := flatSize(xt.Elem)
		addr := cc.emitDynAddr(idxReg, -1, x, stride, int32(xt.ArrayLen))
		out := cc.temp(stride)
		cc.emit(instr{op: opLoadInd, dst: out, a: addr, n: stride})
		return out, false
	case xt.IsVector():
		addr := cc.emitDynAddr(idxReg, -1, x, 1, int32(xt.VectorSize()))
		out := cc.temp(1)
		cc.emit(instr{op: opLoadInd, dst: out, a: addr, n: 1})
		cc.pending.Mov++
		return out, false
	case xt.IsMatrix():
		dim := int32(xt.MatrixDim())
		addr := cc.emitDynAddr(idxReg, -1, x, dim, dim)
		out := cc.temp(dim)
		cc.emit(instr{op: opLoadInd, dst: out, a: addr, n: dim})
		cc.pending.Mov += uint64(dim)
		return out, false
	}
	cc.fail(n.Pos, "type %s is not indexable", xt)
	return 0, false
}

// contiguous reports whether a swizzle selects adjacent components in
// ascending order.
func contiguous(swz []int) bool {
	for i := range swz {
		if swz[i] != swz[0]+i {
			return false
		}
	}
	return true
}

func indexLimit(t *glsl.Type) int {
	switch {
	case t.Kind == glsl.KArray:
		return t.ArrayLen
	case t.IsVector():
		return t.VectorSize()
	case t.IsMatrix():
		return t.MatrixDim()
	}
	return 1
}

// emitDynAddr computes base + clamp(trunc(idx))*stride into a fresh temp.
// baseReg >= 0 uses a dynamic base address; otherwise baseConst is the
// static base.
func (cc *compiler) emitDynAddr(idxReg, baseReg, baseConst, stride, limit int32) int32 {
	addr := cc.temp(1)
	cc.emit(instr{op: opDynAddr, dst: addr, a: idxReg, b: baseReg, c: baseConst, n: stride, aux: limit})
	return addr
}

func (cc *compiler) compileUnary(n *glsl.UnaryExpr) (int32, bool) {
	if n.Op == glsl.TokInc || n.Op == glsl.TokDec {
		mark := cc.tempTop
		curR, curDir := cc.compileExpr(n.X)
		nc := compCount(n.X.Type())
		cur := cc.materialize(curR, curDir, nc)
		one := cc.temp(1)
		cc.emit(instr{op: opLoadImm, dst: one, imm: 1})
		op := glsl.TokPlus
		if n.Op == glsl.TokDec {
			op = glsl.TokMinus
		}
		oneT := glsl.TypeFloat
		if n.X.Type().ComponentType().Kind == glsl.KInt {
			oneT = glsl.TypeInt
		}
		next := cc.emitBinaryOp(op, cur, one, n.X.Type(), oneT, n.X.Type(), mark)
		lv := cc.compileLValue(n.X)
		cc.store(lv, next, false, -1)
		if n.Postfix {
			return cur, false
		}
		return next, false
	}
	x, xdir := cc.compileExpr(n.X)
	nc := compCount(n.X.Type())
	switch n.Op {
	case glsl.TokPlus:
		return x, xdir
	case glsl.TokMinus:
		out := cc.temp(nc)
		cc.emit(instr{op: opNeg, dst: out, a: x, n: nc})
		cc.pending.Add += uint64(nc)
		return out, false
	case glsl.TokBang:
		out := cc.temp(1)
		cc.emit(instr{op: opNot, dst: out, a: x})
		cc.pending.Logic++
		return out, false
	}
	cc.fail(n.Pos, "unsupported unary operator %s", n.Op)
	return 0, false
}

func (cc *compiler) compileBinary(n *glsl.BinaryExpr) (int32, bool) {
	mark := cc.tempTop
	switch n.Op {
	case glsl.TokAndAnd:
		x, _ := cc.compileExpr(n.X)
		cc.pending.Logic++
		out := cc.temp(1)
		falseL, endL := cc.newLabel(), cc.newLabel()
		cc.branchUnless(x, mark, falseL)
		y, _ := cc.compileExpr(n.Y)
		cc.emit(instr{op: opBoolNorm, dst: out, a: y})
		cc.jump(instr{op: opJmp}, endL)
		cc.bind(falseL)
		cc.emit(instr{op: opLoadImm, dst: out, imm: 0})
		cc.bind(endL)
		return out, false
	case glsl.TokOrOr:
		x, _ := cc.compileExpr(n.X)
		cc.pending.Logic++
		out := cc.temp(1)
		trueL, endL := cc.newLabel(), cc.newLabel()
		cc.jump(instr{op: opJnz, a: x}, trueL)
		y, _ := cc.compileExpr(n.Y)
		cc.emit(instr{op: opBoolNorm, dst: out, a: y})
		cc.jump(instr{op: opJmp}, endL)
		cc.bind(trueL)
		cc.emit(instr{op: opLoadImm, dst: out, imm: 1})
		cc.bind(endL)
		return out, false
	}
	x, xdir := cc.compileExpr(n.X)
	if xdir && cc.hasSideEffects(n.Y) {
		x = cc.materialize(x, true, flatSize(n.X.Type()))
	}
	y, _ := cc.compileExpr(n.Y)
	return cc.emitBinaryOp(n.Op, x, y, n.X.Type(), n.Y.Type(), n.Type(), mark), false
}

// emitBinaryOp mirrors the interpreter's applyBinary, including its Stats
// accounting. Its operands were computed since mark (emitArith).
func (cc *compiler) emitBinaryOp(op glsl.TokenKind, x, y int32, xt, yt, resT *glsl.Type, mark int32) int32 {
	switch op {
	case glsl.TokXorXor:
		cc.pending.Logic++
		out := cc.temp(1)
		cc.emit(instr{op: opXorXor, dst: out, a: x, b: y})
		return out
	case glsl.TokLess, glsl.TokGreater, glsl.TokLessEq, glsl.TokGreaterEq:
		cc.pending.Cmp++
		out := cc.temp(1)
		var o opcode
		switch op {
		case glsl.TokLess:
			o = opLt
		case glsl.TokGreater:
			o = opGt
		case glsl.TokLessEq:
			o = opLe
		case glsl.TokGreaterEq:
			o = opGe
		}
		cc.emit(instr{op: o, dst: out, a: x, b: y})
		return out
	case glsl.TokEqEq, glsl.TokNotEq:
		cc.pending.Cmp += uint64(maxI(1, xt.ComponentCount()))
		out := cc.temp(1)
		o := opEqV
		if op == glsl.TokNotEq {
			o = opNeV
		}
		cc.emit(instr{op: o, dst: out, a: x, b: y, n: flatSize(xt)})
		return out
	}

	if op == glsl.TokStar && (xt.IsMatrix() || yt.IsMatrix()) &&
		!(xt.IsMatrix() && yt.IsScalar()) && !(xt.IsScalar() && yt.IsMatrix()) {
		out := cc.temp(flatSize(resT))
		switch {
		case xt.IsMatrix() && yt.IsMatrix():
			d := xt.MatrixDim()
			cc.emit(instr{op: opMatMulMM, dst: out, a: x, b: y, n: int32(d)})
			cc.pending.Mul += uint64(d * d * d)
			cc.pending.Add += uint64(d * d * (d - 1))
		case xt.IsMatrix() && yt.IsVector():
			d := xt.MatrixDim()
			cc.emit(instr{op: opMatMulMV, dst: out, a: x, b: y, n: int32(d)})
			cc.pending.Mul += uint64(d * d)
			cc.pending.Add += uint64(d * (d - 1))
		case xt.IsVector() && yt.IsMatrix():
			d := yt.MatrixDim()
			cc.emit(instr{op: opMatMulVM, dst: out, a: x, b: y, n: int32(d)})
			cc.pending.Mul += uint64(d * d)
			cc.pending.Add += uint64(d * (d - 1))
		}
		return out
	}

	isInt := resT.ComponentType().Kind == glsl.KInt
	nc := compCount(resT)
	var aux int32
	if xt.IsScalar() && nc > 1 {
		aux |= 1
	}
	if yt.IsScalar() && nc > 1 {
		aux |= 2
	}
	var o opcode
	switch op {
	case glsl.TokPlus:
		o = opAdd
		cc.pending.Add += uint64(nc)
	case glsl.TokMinus:
		o = opSub
		cc.pending.Add += uint64(nc)
	case glsl.TokStar:
		o = opMul
		cc.pending.Mul += uint64(nc)
	case glsl.TokSlash:
		if isInt {
			o = opDivI
		} else {
			o = opDivF
		}
		cc.pending.Div += uint64(nc)
	default:
		cc.fail(glsl.Pos{}, "unsupported binary operator %s", op)
	}
	out := cc.temp(nc)
	cc.emitArith(instr{op: o, dst: out, a: x, b: y, n: nc, aux: aux}, mark)
	return out
}

// ---- L-values ----

// lplace is a compiled storage location: a static register base or a
// runtime-computed address register, with an optional static component
// selection on top (the compile-time mirror of the interpreter's lref).
type lplace struct {
	base  int32
	addr  int32 // register holding the address; -1 when static
	comps []int
	size  int32 // flat size when comps == nil
}

func (cc *compiler) compileLValue(e glsl.Expr) lplace {
	switch n := e.(type) {
	case *glsl.Ident:
		return lplace{base: cc.varReg(n), addr: -1, size: flatSize(n.Type())}
	case *glsl.FieldExpr:
		base := cc.compileLValue(n.X)
		if n.Swizzle != nil {
			if base.comps == nil {
				base.comps = append([]int{}, n.Swizzle...)
			} else {
				out := make([]int, len(n.Swizzle))
				for i, s := range n.Swizzle {
					out[i] = base.comps[s]
				}
				base.comps = out
			}
			return base
		}
		if base.comps != nil {
			cc.fail(n.Pos, "field access through component selection")
		}
		xt := n.X.Type()
		off := fieldOffset(xt, n.FieldIndex)
		base.size = flatSize(n.Type())
		if base.addr < 0 {
			base.base += off
			return base
		}
		if off != 0 {
			na := cc.temp(1)
			cc.emit(instr{op: opAddrOff, dst: na, a: base.addr, n: off})
			base.addr = na
		}
		return base
	case *glsl.IndexExpr:
		base := cc.compileLValue(n.X)
		xt := n.X.Type()
		if lit, ok := n.Index.(*glsl.IntLit); ok {
			idx := clampIndex(int(lit.Val), indexLimit(xt))
			switch {
			case xt.Kind == glsl.KArray:
				if base.comps != nil {
					cc.fail(n.Pos, "array access through component selection")
				}
				off := int32(idx) * flatSize(xt.Elem)
				base.size = flatSize(xt.Elem)
				if base.addr < 0 {
					base.base += off
				} else if off != 0 {
					na := cc.temp(1)
					cc.emit(instr{op: opAddrOff, dst: na, a: base.addr, n: off})
					base.addr = na
				}
				return base
			case xt.IsVector():
				if base.comps != nil {
					base.comps = []int{base.comps[idx]}
					return base
				}
				base.comps = []int{idx}
				return base
			case xt.IsMatrix():
				dim := xt.MatrixDim()
				col := make([]int, dim)
				for i := range col {
					col[i] = idx*dim + i
				}
				base.comps = col
				return base
			}
			cc.fail(n.Pos, "type %s is not indexable", xt)
		}
		idxReg, _ := cc.compileExpr(n.Index)
		switch {
		case xt.Kind == glsl.KArray:
			if base.comps != nil {
				cc.fail(n.Pos, "array access through component selection")
			}
			stride := flatSize(xt.Elem)
			base.addr = cc.emitDynAddr(idxReg, base.addr, base.base, stride, int32(xt.ArrayLen))
			base.size = stride
			return base
		case xt.IsVector():
			limit := int32(xt.VectorSize())
			if base.comps != nil {
				// Dynamic component through a swizzle: pick from the
				// permutation table at runtime.
				addr := cc.temp(1)
				aux := limit
				aux |= packSwz(base.comps) << 8
				cc.emit(instr{op: opDynPick, dst: addr, a: idxReg, b: base.addr, c: base.base, aux: aux})
				return lplace{addr: addr, size: 1}
			}
			base.addr = cc.emitDynAddr(idxReg, base.addr, base.base, 1, limit)
			base.size = 1
			return base
		case xt.IsMatrix():
			dim := int32(xt.MatrixDim())
			base.addr = cc.emitDynAddr(idxReg, base.addr, base.base, dim, dim)
			base.size = dim
			return base
		}
		cc.fail(n.Pos, "type %s is not indexable", xt)
	}
	cc.fail(e.NodePos(), "expression is not an l-value")
	return lplace{}
}

// store writes src into the compiled place, mirroring Exec.store (raw
// component copy, no conversions, no Stats). A static place takes src's
// value from the op that computed it when src is dead past mark (move); a
// negative mark keeps src written.
func (cc *compiler) store(lv lplace, src int32, srcDirect bool, mark int32) {
	if lv.comps == nil {
		if lv.addr < 0 {
			cc.move(lv.base, src, lv.size, mark)
		} else {
			cc.emit(instr{op: opStoreInd, a: lv.addr, b: src, n: lv.size})
		}
		return
	}
	// Component stores write one lane at a time; materialize a direct
	// source so overlapping selections (v.xy = v.yx) behave like the
	// interpreter's evaluate-then-store.
	src = cc.materialize(src, srcDirect, int32(len(lv.comps)))
	n := int32(len(lv.comps))
	if lv.addr < 0 {
		// Adjacent ascending components are one range.
		if !contiguous(lv.comps) || !cc.forward(lv.base+int32(lv.comps[0]), src, n, mark) {
			cc.emit(instr{op: opSwizStore, dst: lv.base, a: src, n: n, aux: packSwz(lv.comps)})
		}
	} else {
		cc.emit(instr{op: opStoreIndC, a: lv.addr, b: src, n: int32(len(lv.comps)), aux: packSwz(lv.comps)})
	}
}

// compileEffect compiles e for its side effects: an assignment's value is
// not kept, so its result may go straight into the assigned variable.
func (cc *compiler) compileEffect(e glsl.Expr) {
	if n, ok := e.(*glsl.AssignExpr); ok {
		cc.compileAssign(n, false)
		return
	}
	cc.compileExpr(e)
}

// compileAssign compiles an assignment; keep reports that its value is
// read.
func (cc *compiler) compileAssign(n *glsl.AssignExpr, keep bool) (int32, bool) {
	mark := cc.tempTop
	rhs, rhsDir := cc.compileExpr(n.RHS)
	// The interpreter evaluates the RHS to a value before resolving the
	// destination; materialize it if resolving the LHS can mutate state.
	if rhsDir && cc.hasSideEffects(n.LHS) {
		rhs = cc.materialize(rhs, true, flatSize(n.RHS.Type()))
		rhsDir = false
	}
	lv := cc.compileLValue(n.LHS)
	if n.Op != glsl.TokAssign {
		cur, curDir := cc.compileExpr(n.LHS)
		_ = curDir
		op := map[glsl.TokenKind]glsl.TokenKind{
			glsl.TokPlusAssign:  glsl.TokPlus,
			glsl.TokMinusAssign: glsl.TokMinus,
			glsl.TokStarAssign:  glsl.TokStar,
			glsl.TokSlashAssign: glsl.TokSlash,
		}[n.Op]
		rhs = cc.emitBinaryOp(op, cur, rhs, n.LHS.Type(), n.RHS.Type(), n.Type(), mark)
		rhsDir = false
	}
	cc.pending.Mov += uint64(maxI(1, n.Type().ComponentCount()))
	if !keep {
		cc.store(lv, rhs, rhsDir, mark)
		return 0, false
	}
	// The interpreter materializes the RHS value before storing; do the
	// same so the assignment result survives the store.
	rhs = cc.materialize(rhs, rhsDir, flatSize(n.Type()))
	cc.store(lv, rhs, false, -1)
	return rhs, false
}

// ---- Calls ----

func (cc *compiler) compileCall(n *glsl.CallExpr) (int32, bool) {
	switch n.Kind {
	case glsl.CallTypeConstructor:
		return cc.compileConstructor(n)
	case glsl.CallStructConstructor:
		t := n.CtorType
		out := cc.temp(flatSize(t))
		args := cc.compileArgs(n.Args)
		off := out
		for i, f := range t.Struct.Fields {
			size := flatSize(f.Type)
			cc.emit(instr{op: opMov, dst: off, a: args[i], n: size})
			off += size
		}
		return out, false
	case glsl.CallBuiltin:
		return cc.compileBuiltin(n)
	case glsl.CallUser:
		return cc.compileUserCall(n)
	}
	cc.fail(n.Pos, "unresolved call to %q", n.Callee)
	return 0, false
}

// compileArgs evaluates an argument list left to right, materializing
// direct operands whenever a later argument has side effects.
func (cc *compiler) compileArgs(args []glsl.Expr) []int32 {
	regs := make([]int32, len(args))
	for i, a := range args {
		r, dir := cc.compileExpr(a)
		if dir {
			for _, later := range args[i+1:] {
				if cc.hasSideEffects(later) {
					r = cc.materialize(r, true, flatSize(a.Type()))
					break
				}
			}
		}
		regs[i] = r
	}
	return regs
}

func (cc *compiler) compileConstructor(n *glsl.CallExpr) (int32, bool) {
	t := n.CtorType
	args := cc.compileArgs(n.Args)
	switch {
	case t.IsScalar():
		out := cc.temp(1)
		cc.emitConvert(out, args[0], 1, t, n.Args[0].Type())
		cc.pending.Mov++
		return out, false
	case t.IsVector():
		size := int32(t.VectorSize())
		out := cc.temp(size)
		if len(args) == 1 && n.Args[0].Type().IsScalar() {
			conv := cc.temp(1)
			cc.emitConvert(conv, args[0], 1, t, n.Args[0].Type())
			cc.emit(instr{op: opSplat, dst: out, a: conv, n: size})
		} else {
			cc.emit(instr{op: opZero, dst: out, n: size})
			var k int32
			for i, a := range args {
				at := n.Args[i].Type()
				an := compCount(at)
				cnt := an
				if k+cnt > size {
					cnt = size - k
				}
				if cnt <= 0 {
					break
				}
				cc.emitConvert(out+k, a, cnt, t, at)
				k += cnt
			}
		}
		cc.pending.Mov += uint64(size)
		return out, false
	case t.IsMatrix():
		dim := int32(t.MatrixDim())
		out := cc.temp(dim * dim)
		if len(args) == 1 && n.Args[0].Type().IsScalar() {
			cc.emit(instr{op: opMatDiag, dst: out, a: args[0], n: dim})
		} else {
			cc.emit(instr{op: opZero, dst: out, n: dim * dim})
			var k int32
			for i, a := range args {
				an := compCount(n.Args[i].Type())
				cnt := an
				if k+cnt > dim*dim {
					cnt = dim*dim - k
				}
				if cnt <= 0 {
					break
				}
				// Matrix constructors copy raw components, no conversion.
				cc.emit(instr{op: opMov, dst: out + k, a: a, n: cnt})
				k += cnt
			}
		}
		cc.pending.Mov += uint64(dim * dim)
		return out, false
	}
	cc.fail(n.Pos, "cannot construct %s", t)
	return 0, false
}

// emitConvert copies n components from src to dst applying the
// constructor conversion rules of convertCompAt.
func (cc *compiler) emitConvert(dst, src, n int32, target, srcT *glsl.Type) {
	switch target.ComponentType().Kind {
	case glsl.KInt:
		if srcT.ComponentType().Kind == glsl.KFloat {
			cc.emit(instr{op: opConvInt, dst: dst, a: src, n: n})
			return
		}
	case glsl.KBool:
		cc.emit(instr{op: opConvBool, dst: dst, a: src, n: n})
		return
	}
	cc.emit(instr{op: opMov, dst: dst, a: src, n: n})
}

func (cc *compiler) compileUserCall(n *glsl.CallExpr) (int32, bool) {
	fd := n.Func
	if fd == nil || fd.Body == nil {
		cc.fail(n.Pos, "call to undefined function %q", n.Callee)
	}
	fi := cc.frames[fd]
	if fi == nil {
		cc.fail(n.Pos, "function %q was not discovered during layout", fd.Name)
	}
	cc.pending.Call++
	params := cc.passArgs(n, fi)
	if fi.inline {
		ret := cc.inlineBody(fi, params)
		cc.writeBack(n, fi)
		return ret, false
	}
	cc.emit(instr{op: opCall, n: cc.takeStats(), aux: fi.index})
	// A discard in the callee's own body unwinds exactly one level in the
	// interpreter: this call's out/inout writebacks (and their Stats) still
	// run, then the invocation aborts. Capture the flag, run the epilogue,
	// then halt if it was set (see Exec.evalUserCall's ctrlDiscard path).
	// A callee that cannot discard needs none of this.
	var dflag int32
	if fi.discards {
		dflag = cc.temp(1)
		cc.emit(instr{op: opDiscardTake, dst: dflag})
	}
	var ret int32
	if fi.retSize > 0 {
		ret = cc.temp(fi.retSize)
		cc.emit(instr{op: opMov, dst: ret, a: fi.retBase, n: fi.retSize})
	}
	cc.writeBack(n, fi)
	if fi.discards {
		cc.emit(instr{op: opDiscardHalt, a: dflag, n: cc.takeStats()})
	}
	return ret, false
}

// passArgs evaluates a call's arguments left to right and returns the
// register each callee parameter reads. An in parameter of an inlined
// callee that never writes it reads its argument where it already is, when
// that is a temporary or a local (any register past the globals): the body
// can change neither, since a local belongs to a caller and GLSL ES has no
// recursion, while it may write a global or builtin. Every other parameter
// gets a copy in the callee's frame.
func (cc *compiler) passArgs(n *glsl.CallExpr, fi *funcInfo) []int32 {
	// When an argument expression can itself invoke user code, evaluate
	// every argument into scratch space before touching the callee's
	// parameter registers (an inner call may target the same function).
	indirect := false
	for _, a := range n.Args {
		if containsUserCall(a) {
			indirect = true
			break
		}
	}
	params := make([]int32, len(n.Args))
	staged := make([]int32, len(n.Args)) // scratch copy, or -1 once placed
	for i, a := range n.Args {
		p := fi.fd.Params[i]
		psize := flatSize(p.DeclType)
		params[i] = fi.localOff[p.Slot]
		if p.Dir == glsl.DirOut {
			continue
		}
		mark := cc.tempTop
		r, dir := cc.compileExpr(a)
		if dir {
			for _, later := range n.Args[i+1:] {
				if cc.hasSideEffects(later) {
					r, dir = cc.materialize(r, true, psize), false
					break
				}
			}
		}
		switch {
		case fi.inline && p.Dir == glsl.DirIn && !fi.written[i] && r >= cc.comp.globalEnd:
			params[i], staged[i] = r, -1
		case indirect:
			staged[i] = cc.materialize(r, dir, psize)
		default:
			cc.move(params[i], r, psize, mark)
			staged[i] = -1
		}
	}
	for i, p := range fi.fd.Params {
		psize := flatSize(p.DeclType)
		switch {
		case p.Dir == glsl.DirOut:
			cc.emit(instr{op: opZero, dst: params[i], n: psize})
		case staged[i] >= 0:
			cc.emit(instr{op: opMov, dst: params[i], a: staged[i], n: psize})
		}
	}
	return params
}

// inlineBody emits fi's body in place of a call whose parameters live in
// params and returns the register holding the call's value. The body's
// locals keep their static frame; its temps come from the caller's scratch
// area, above everything the call site still needs.
func (cc *compiler) inlineBody(fi *funcInfo, params []int32) int32 {
	locals := append([]int32(nil), fi.localOff...)
	for i, p := range fi.fd.Params {
		locals[p.Slot] = params[i]
	}
	body := fi.fd.Body.Stmts
	site := &inlineSite{size: fi.retSize, end: cc.newLabel()}
	if k := len(body); k > 0 {
		site.tail, _ = body[k-1].(*glsl.ReturnStmt)
	}
	outer, outerSite, outerLoops := cc.locals, cc.inl, cc.loops
	cc.locals, cc.inl, cc.loops = locals, site, nil
	defer func() { cc.locals, cc.inl, cc.loops = outer, outerSite, outerLoops }()

	if site.tail != nil && fi.returns == 1 {
		// One return, at the end: its value is the call's value. A value
		// still in variable storage is copied, because a later call can
		// reuse this frame.
		for _, s := range body[:len(body)-1] {
			cc.compileStmt(s)
		}
		if site.tail.X == nil {
			return 0
		}
		r, dir := cc.compileExpr(site.tail.X)
		return cc.materialize(r, dir, fi.retSize)
	}
	if fi.retSize > 0 {
		site.result = cc.temp(fi.retSize)
		if site.tail == nil {
			// Falling off the end yields the zero value.
			cc.emit(instr{op: opZero, dst: site.result, n: fi.retSize})
		}
	}
	for _, s := range body {
		cc.compileStmt(s)
	}
	if len(site.end.fixes) > 0 {
		cc.bind(site.end)
	}
	return site.result
}

// writeBack stores a finished call's out and inout parameters into their
// argument l-values, in parameter order. The values are copied out of the
// callee's frame first: evaluating an l-value can call the callee again.
func (cc *compiler) writeBack(n *glsl.CallExpr, fi *funcInfo) {
	type writeback struct {
		arg  glsl.Expr
		tmp  int32
		decl *glsl.VarDecl
	}
	var wbs []writeback
	for i, p := range fi.fd.Params {
		if p.Dir == glsl.DirOut || p.Dir == glsl.DirInOut {
			size := flatSize(p.DeclType)
			tmp := cc.temp(size)
			cc.emit(instr{op: opMov, dst: tmp, a: fi.localOff[p.Slot], n: size})
			wbs = append(wbs, writeback{arg: n.Args[i], tmp: tmp, decl: p})
		}
	}
	for _, wb := range wbs {
		lv := cc.compileLValue(wb.arg)
		cc.store(lv, wb.tmp, false, -1)
		cc.pending.Mov += uint64(maxI(1, wb.decl.DeclType.ComponentCount()))
	}
}

func (cc *compiler) compileBuiltin(n *glsl.CallExpr) (int32, bool) {
	sig := n.Builtin
	if sig == nil {
		cc.fail(n.Pos, "unresolved builtin %q", n.Callee)
	}
	if len(n.Args) > 3 {
		cc.fail(n.Pos, "builtin %q has more than 3 arguments", n.Callee)
	}
	mark := cc.tempTop
	args := cc.compileArgs(n.Args)
	d := builtinDesc{
		id:    sig.ID,
		nargs: int32(len(args)),
		nc:    compCount(n.Type()),
	}
	for i, r := range args {
		d.args[i] = r
		d.scalar[i] = n.Args[i].Type().IsScalar()
	}
	if len(n.Args) > 0 {
		d.an = compCount(n.Args[0].Type())
		d.dim = int32(n.Args[0].Type().MatrixDim())
	}
	out := cc.temp(maxI32(d.nc, 1))
	d.dst = out
	cost, ok := builtinCost(sig.ID, int(d.nc), int(d.an), int(d.dim))
	if !ok {
		cc.fail(n.Pos, "builtin %q not implemented by the bytecode compiler", n.Callee)
	}
	cc.pending.AddStats(&cost)
	if d.id != glsl.BFloor || !cc.texDecode(&d, mark) {
		cc.emitBuiltin(&d)
	}
	return out, false
}

func maxI32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
