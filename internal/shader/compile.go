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
// counts are folded at compile time into a table of Stats deltas flushed
// at basic-block boundaries, so the VM pays a single opStats instruction
// per straight-line region instead of per-operation bookkeeping.
//
// Register allocation is fully static: GLSL ES 1.00 forbids recursion (the
// checker enforces it), so every function's parameters, locals, scratch
// temporaries and return slot live at fixed offsets for the whole program.
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
	opStats            // Stats.AddStats(statTable[aux])
	opJmp              // pc = aux
	opJz               // if regs[a] == 0: pc = aux
	opJnz              // if regs[a] != 0: pc = aux
	opCall             // push pc+1; pc = funcEntry[aux]
	opRet              // pop pc, or finish when the call stack is empty
	opDiscard          // abort the invocation as discarded
	opLoopReset        // loopIters[aux] = 0
	opLoopGuard        // loopIters[aux]++ with runaway check; b = pos table index
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
	opDiscardHalt // if regs[a] != 0: finish the invocation as discarded
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

// funcInfo records the static frame of one function.
type funcInfo struct {
	fd       *glsl.FuncDecl
	entry    int32
	retBase  int32
	retSize  int32
	localOff []int32 // local slot -> register base
	tempBase int32
	tempMax  int32
}

// Compiled is an executable lowering of one shader program. It is immutable
// after Compile and safe to share between VMs (each draw worker gets its
// own VM over the same Compiled).
type Compiled struct {
	Prog *glsl.Program

	code      []instr
	initEntry int32
	mainEntry int32

	stats    []Stats    // opStats flush table
	poss     []glsl.Pos // positions for runtime (loop guard) errors
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
	nloops   int32
	maxDepth int32
}

// NumRegisters reports the size of the register file (diagnostics).
func (c *Compiled) NumRegisters() int { return int(c.nregs) }

// CodeLen reports the instruction count (diagnostics).
func (c *Compiled) CodeLen() int { return len(c.code) }

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

	fn      *funcInfo
	tempTop int32
	funcIdx map[*glsl.FuncDecl]int32
	loops   []loopCtx
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
	cc := &compiler{comp: c, prog: prog, statIdx: map[Stats]int32{}, funcIdx: map[*glsl.FuncDecl]int32{}}

	// Register layout: builtin slots first, then globals, then per-function
	// frames (return slot + locals), then per-function scratch areas.
	cc.layoutBuiltins()
	cc.layoutGlobals()

	reach := cc.reachableFunctions()
	for _, fd := range reach {
		if fd.Body == nil {
			// Called through a prototype that is never defined — a link
			// error in GLSL ES, and nothing to lay out.
			cc.fail(fd.Pos, "function %q is called but never defined", fd.Name)
		}
		fi := &funcInfo{fd: fd}
		cc.funcIdx[fd] = int32(len(c.funcs))
		c.funcs = append(c.funcs, fi)
		fi.retSize = flatSize(fd.Ret)
		fi.retBase = c.nregs
		c.nregs += fi.retSize
		fi.localOff = cc.layoutLocals(fd)
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
	// Collapse dispatch on the hot paths (direct builtin opcodes,
	// superinstructions); bit-identical by construction, see specialize.go.
	specialize(c)
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
	var walk func(s glsl.Stmt)
	walk = func(s glsl.Stmt) {
		switch n := s.(type) {
		case *glsl.BlockStmt:
			for _, st := range n.Stmts {
				walk(st)
			}
		case *glsl.DeclStmt:
			for _, v := range n.Vars {
				decls[v.Slot] = v
			}
		case *glsl.IfStmt:
			walk(n.Then)
			if n.Else != nil {
				walk(n.Else)
			}
		case *glsl.ForStmt:
			if n.InitStmt != nil {
				walk(n.InitStmt)
			}
			walk(n.Body)
		case *glsl.WhileStmt:
			walk(n.Body)
		case *glsl.DoWhileStmt:
			walk(n.Body)
		}
	}
	if fd.Body != nil {
		walk(fd.Body)
	}
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

// reachableFunctions returns every function reachable from main or a
// global initializer, in deterministic discovery order (main first).
func (cc *compiler) reachableFunctions() []*glsl.FuncDecl {
	var order []*glsl.FuncDecl
	seen := map[*glsl.FuncDecl]bool{}
	var fromExpr func(e glsl.Expr)
	var fromStmt func(s glsl.Stmt)
	var visit func(fd *glsl.FuncDecl)
	visit = func(fd *glsl.FuncDecl) {
		if fd == nil || seen[fd] {
			return
		}
		seen[fd] = true
		order = append(order, fd)
		if fd.Body != nil {
			fromStmt(fd.Body)
		}
	}
	fromExpr = func(e glsl.Expr) {
		switch n := e.(type) {
		case *glsl.CallExpr:
			if n.Kind == glsl.CallUser {
				visit(n.Func)
			}
			for _, a := range n.Args {
				fromExpr(a)
			}
		case *glsl.BinaryExpr:
			fromExpr(n.X)
			fromExpr(n.Y)
		case *glsl.UnaryExpr:
			fromExpr(n.X)
		case *glsl.CondExpr:
			fromExpr(n.Cond)
			fromExpr(n.Then)
			fromExpr(n.Else)
		case *glsl.AssignExpr:
			fromExpr(n.LHS)
			fromExpr(n.RHS)
		case *glsl.SequenceExpr:
			fromExpr(n.X)
			fromExpr(n.Y)
		case *glsl.FieldExpr:
			fromExpr(n.X)
		case *glsl.IndexExpr:
			fromExpr(n.X)
			fromExpr(n.Index)
		}
	}
	fromStmt = func(s glsl.Stmt) {
		switch n := s.(type) {
		case *glsl.BlockStmt:
			for _, st := range n.Stmts {
				fromStmt(st)
			}
		case *glsl.DeclStmt:
			for _, v := range n.Vars {
				if v.Init != nil {
					fromExpr(v.Init)
				}
			}
		case *glsl.ExprStmt:
			fromExpr(n.X)
		case *glsl.IfStmt:
			fromExpr(n.Cond)
			fromStmt(n.Then)
			if n.Else != nil {
				fromStmt(n.Else)
			}
		case *glsl.ForStmt:
			if n.InitStmt != nil {
				fromStmt(n.InitStmt)
			}
			if n.Cond != nil {
				fromExpr(n.Cond)
			}
			if n.Post != nil {
				fromExpr(n.Post)
			}
			fromStmt(n.Body)
		case *glsl.WhileStmt:
			fromExpr(n.Cond)
			fromStmt(n.Body)
		case *glsl.DoWhileStmt:
			fromStmt(n.Body)
			fromExpr(n.Cond)
		case *glsl.ReturnStmt:
			if n.X != nil {
				fromExpr(n.X)
			}
		}
	}
	visit(cc.prog.Entry)
	for _, g := range cc.prog.Globals {
		if g.Init != nil && g.ConstVal == nil {
			fromExpr(g.Init)
		}
	}
	return order
}

// ---- Emission helpers ----

func (cc *compiler) emit(in instr) int32 {
	cc.code = append(cc.code, in)
	return int32(len(cc.code) - 1)
}

func (cc *compiler) flushStats() {
	if cc.pending == (Stats{}) {
		return
	}
	idx, ok := cc.statIdx[cc.pending]
	if !ok {
		idx = int32(len(cc.comp.stats))
		cc.comp.stats = append(cc.comp.stats, cc.pending)
		cc.statIdx[cc.pending] = idx
	}
	cc.emit(instr{op: opStats, aux: idx})
	cc.pending = Stats{}
}

func (cc *compiler) newLabel() *label { return &label{pc: -1} }

func (cc *compiler) bind(l *label) {
	cc.flushStats()
	l.pc = int32(len(cc.code))
	for _, at := range l.fixes {
		cc.code[at].aux = l.pc
	}
	l.fixes = nil
}

func (cc *compiler) jump(op opcode, cond int32, l *label) {
	cc.flushStats()
	at := cc.emit(instr{op: op, a: cond, aux: l.pc})
	if l.pc < 0 {
		l.fixes = append(l.fixes, at)
	}
}

func (cc *compiler) posIndex(p glsl.Pos) int32 {
	cc.comp.poss = append(cc.comp.poss, p)
	return int32(len(cc.comp.poss) - 1)
}

// temp allocates n scratch registers in the current frame.
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
	cc.tempTop = 0
	fi.tempBase = cc.comp.nregs
	fi.entry = int32(len(cc.code))
	if fi.retSize > 0 {
		// Falling off the end of a value-returning function yields the
		// zero value, like the interpreter's hasRet handling.
		cc.emit(instr{op: opZero, dst: fi.retBase, n: fi.retSize})
	}
	cc.compileStmt(fi.fd.Body)
	cc.flushStats()
	cc.emit(instr{op: opRet})
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
		r, _ := cc.compileExpr(g.Init)
		cc.emit(instr{op: opMov, dst: base, a: r, n: size})
	}
	cc.flushStats()
	cc.emit(instr{op: opRet})
	cc.comp.nregs = fi.tempBase + fi.tempMax
}

func (cc *compiler) buildMutatedRanges() {
	for _, slot := range MutatedGlobalSlots(cc.prog) {
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
	if cc.fn.localOff == nil {
		cc.fail(n.Pos, "local %q used outside a function frame", n.Name)
	}
	return cc.fn.localOff[n.Ref.Slot]
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
			dst := cc.fn.localOff[v.Slot]
			size := flatSize(v.DeclType)
			if v.Init == nil {
				cc.emit(instr{op: opZero, dst: dst, n: size})
				continue
			}
			sub := cc.tempTop
			r, _ := cc.compileExpr(v.Init)
			cc.pending.Mov += uint64(v.DeclType.ComponentCount())
			cc.emit(instr{op: opMov, dst: dst, a: r, n: size})
			cc.tempTop = sub
		}
	case *glsl.ExprStmt:
		cc.compileExpr(n.X)
	case *glsl.EmptyStmt:
	case *glsl.IfStmt:
		cond, _ := cc.compileExpr(n.Cond)
		cc.pending.Branch++
		elseL := cc.newLabel()
		endL := cc.newLabel()
		cc.jump(opJz, cond, elseL)
		cc.compileStmt(n.Then)
		if n.Else != nil {
			cc.jump(opJmp, 0, endL)
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
		loopID := cc.comp.nloops
		cc.comp.nloops++
		head, post, exit := cc.newLabel(), cc.newLabel(), cc.newLabel()
		cc.emit(instr{op: opLoopReset, aux: loopID})
		cc.bind(head)
		cc.emit(instr{op: opLoopGuard, aux: loopID, b: cc.posIndex(n.Pos)})
		if n.Cond != nil {
			cond, _ := cc.compileExpr(n.Cond)
			cc.pending.Branch++
			cc.jump(opJz, cond, exit)
		}
		cc.loops = append(cc.loops, loopCtx{breakL: exit, continueL: post})
		cc.compileStmt(n.Body)
		cc.loops = cc.loops[:len(cc.loops)-1]
		cc.bind(post)
		if n.Post != nil {
			cc.compileExpr(n.Post)
		}
		cc.jump(opJmp, 0, head)
		cc.bind(exit)
	case *glsl.WhileStmt:
		loopID := cc.comp.nloops
		cc.comp.nloops++
		head, exit := cc.newLabel(), cc.newLabel()
		cc.emit(instr{op: opLoopReset, aux: loopID})
		cc.bind(head)
		cc.emit(instr{op: opLoopGuard, aux: loopID, b: cc.posIndex(n.Pos)})
		cond, _ := cc.compileExpr(n.Cond)
		cc.pending.Branch++
		cc.jump(opJz, cond, exit)
		cc.loops = append(cc.loops, loopCtx{breakL: exit, continueL: head})
		cc.compileStmt(n.Body)
		cc.loops = cc.loops[:len(cc.loops)-1]
		cc.jump(opJmp, 0, head)
		cc.bind(exit)
	case *glsl.DoWhileStmt:
		loopID := cc.comp.nloops
		cc.comp.nloops++
		head, condL, exit := cc.newLabel(), cc.newLabel(), cc.newLabel()
		cc.emit(instr{op: opLoopReset, aux: loopID})
		cc.bind(head)
		cc.emit(instr{op: opLoopGuard, aux: loopID, b: cc.posIndex(n.Pos)})
		cc.loops = append(cc.loops, loopCtx{breakL: exit, continueL: condL})
		cc.compileStmt(n.Body)
		cc.loops = cc.loops[:len(cc.loops)-1]
		cc.bind(condL)
		cond, _ := cc.compileExpr(n.Cond)
		cc.pending.Branch++
		cc.jump(opJnz, cond, head)
		cc.bind(exit)
	case *glsl.ReturnStmt:
		if n.X != nil {
			r, _ := cc.compileExpr(n.X)
			cc.emit(instr{op: opMov, dst: cc.fn.retBase, a: r, n: cc.fn.retSize})
		}
		cc.flushStats()
		cc.emit(instr{op: opRet})
	case *glsl.BreakStmt:
		if len(cc.loops) == 0 {
			cc.fail(n.NodePos(), "break outside loop")
		}
		cc.jump(opJmp, 0, cc.loops[len(cc.loops)-1].breakL)
	case *glsl.ContinueStmt:
		if len(cc.loops) == 0 {
			cc.fail(n.NodePos(), "continue outside loop")
		}
		cc.jump(opJmp, 0, cc.loops[len(cc.loops)-1].continueL)
	case *glsl.DiscardStmt:
		cc.flushStats()
		cc.emit(instr{op: opDiscard})
	default:
		cc.fail(s.NodePos(), "unknown statement %T", s)
	}
}

// ---- Expressions ----

// hasSideEffects reports whether evaluating e can mutate program state
// (assignments, increments, or user function calls, which may write
// globals and out parameters). Used to decide when an operand read from
// variable storage must be materialized before a sibling runs.
func hasSideEffects(e glsl.Expr) bool {
	switch n := e.(type) {
	case *glsl.AssignExpr:
		return true
	case *glsl.UnaryExpr:
		if n.Op == glsl.TokInc || n.Op == glsl.TokDec {
			return true
		}
		return hasSideEffects(n.X)
	case *glsl.BinaryExpr:
		return hasSideEffects(n.X) || hasSideEffects(n.Y)
	case *glsl.CondExpr:
		return hasSideEffects(n.Cond) || hasSideEffects(n.Then) || hasSideEffects(n.Else)
	case *glsl.SequenceExpr:
		return hasSideEffects(n.X) || hasSideEffects(n.Y)
	case *glsl.CallExpr:
		if n.Kind == glsl.CallUser {
			return true
		}
		for _, a := range n.Args {
			if hasSideEffects(a) {
				return true
			}
		}
		return false
	case *glsl.FieldExpr:
		return hasSideEffects(n.X)
	case *glsl.IndexExpr:
		return hasSideEffects(n.X) || hasSideEffects(n.Index)
	default:
		return false
	}
}

// containsUserCall reports whether e contains any user function call.
func containsUserCall(e glsl.Expr) bool {
	switch n := e.(type) {
	case *glsl.AssignExpr:
		return containsUserCall(n.LHS) || containsUserCall(n.RHS)
	case *glsl.UnaryExpr:
		return containsUserCall(n.X)
	case *glsl.BinaryExpr:
		return containsUserCall(n.X) || containsUserCall(n.Y)
	case *glsl.CondExpr:
		return containsUserCall(n.Cond) || containsUserCall(n.Then) || containsUserCall(n.Else)
	case *glsl.SequenceExpr:
		return containsUserCall(n.X) || containsUserCall(n.Y)
	case *glsl.CallExpr:
		if n.Kind == glsl.CallUser {
			return true
		}
		for _, a := range n.Args {
			if containsUserCall(a) {
				return true
			}
		}
		return false
	case *glsl.FieldExpr:
		return containsUserCall(n.X)
	case *glsl.IndexExpr:
		return containsUserCall(n.X) || containsUserCall(n.Index)
	default:
		return false
	}
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
		cond, _ := cc.compileExpr(n.Cond)
		cc.pending.Select += uint64(n.Type().ComponentCount())
		size := flatSize(n.Type())
		out := cc.temp(size)
		elseL, endL := cc.newLabel(), cc.newLabel()
		cc.jump(opJz, cond, elseL)
		mark := cc.tempTop
		tr, _ := cc.compileExpr(n.Then)
		cc.emit(instr{op: opMov, dst: out, a: tr, n: size})
		cc.jump(opJmp, 0, endL)
		cc.bind(elseL)
		cc.tempTop = mark // branches are exclusive; share scratch space
		er, _ := cc.compileExpr(n.Else)
		cc.emit(instr{op: opMov, dst: out, a: er, n: size})
		cc.bind(endL)
		return out, false
	case *glsl.AssignExpr:
		return cc.compileAssign(n)
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
	if xdir && hasSideEffects(n.Index) {
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
		next := cc.emitBinaryOp(op, cur, one, n.X.Type(), oneT, n.X.Type())
		lv := cc.compileLValue(n.X)
		cc.store(lv, next, false, n.X.Type())
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
	switch n.Op {
	case glsl.TokAndAnd:
		x, _ := cc.compileExpr(n.X)
		cc.pending.Logic++
		out := cc.temp(1)
		falseL, endL := cc.newLabel(), cc.newLabel()
		cc.jump(opJz, x, falseL)
		y, _ := cc.compileExpr(n.Y)
		cc.emit(instr{op: opBoolNorm, dst: out, a: y})
		cc.jump(opJmp, 0, endL)
		cc.bind(falseL)
		cc.emit(instr{op: opLoadImm, dst: out, imm: 0})
		cc.bind(endL)
		return out, false
	case glsl.TokOrOr:
		x, _ := cc.compileExpr(n.X)
		cc.pending.Logic++
		out := cc.temp(1)
		trueL, endL := cc.newLabel(), cc.newLabel()
		cc.jump(opJnz, x, trueL)
		y, _ := cc.compileExpr(n.Y)
		cc.emit(instr{op: opBoolNorm, dst: out, a: y})
		cc.jump(opJmp, 0, endL)
		cc.bind(trueL)
		cc.emit(instr{op: opLoadImm, dst: out, imm: 1})
		cc.bind(endL)
		return out, false
	}
	x, xdir := cc.compileExpr(n.X)
	if xdir && hasSideEffects(n.Y) {
		x = cc.materialize(x, true, flatSize(n.X.Type()))
	}
	y, _ := cc.compileExpr(n.Y)
	return cc.emitBinaryOp(n.Op, x, y, n.X.Type(), n.Y.Type(), n.Type()), false
}

// emitBinaryOp mirrors the interpreter's applyBinary, including its Stats
// accounting.
func (cc *compiler) emitBinaryOp(op glsl.TokenKind, x, y int32, xt, yt, resT *glsl.Type) int32 {
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
	cc.emit(instr{op: o, dst: out, a: x, b: y, n: nc, aux: aux})
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
// component copy, no conversions, no Stats).
func (cc *compiler) store(lv lplace, src int32, srcDirect bool, t *glsl.Type) {
	if lv.comps == nil {
		if lv.addr < 0 {
			cc.emit(instr{op: opMov, dst: lv.base, a: src, n: lv.size})
		} else {
			cc.emit(instr{op: opStoreInd, a: lv.addr, b: src, n: lv.size})
		}
		return
	}
	// Component stores write one lane at a time; materialize a direct
	// source so overlapping selections (v.xy = v.yx) behave like the
	// interpreter's evaluate-then-store.
	src = cc.materialize(src, srcDirect, int32(len(lv.comps)))
	if lv.addr < 0 {
		cc.emit(instr{op: opSwizStore, dst: lv.base, a: src, n: int32(len(lv.comps)), aux: packSwz(lv.comps)})
	} else {
		cc.emit(instr{op: opStoreIndC, a: lv.addr, b: src, n: int32(len(lv.comps)), aux: packSwz(lv.comps)})
	}
}

func (cc *compiler) compileAssign(n *glsl.AssignExpr) (int32, bool) {
	rhs, rhsDir := cc.compileExpr(n.RHS)
	// The interpreter evaluates the RHS to a value before resolving the
	// destination; materialize it if resolving the LHS can mutate state.
	if rhsDir && hasSideEffects(n.LHS) {
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
		rhs = cc.emitBinaryOp(op, cur, rhs, n.LHS.Type(), n.RHS.Type(), n.Type())
		rhsDir = false
	}
	// The interpreter materializes the RHS value before storing; do the
	// same so the assignment result survives the store.
	rhs = cc.materialize(rhs, rhsDir, flatSize(n.Type()))
	cc.pending.Mov += uint64(maxI(1, n.Type().ComponentCount()))
	cc.store(lv, rhs, false, n.Type())
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
				if hasSideEffects(later) {
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
	idx, ok := cc.funcIdx[fd]
	if !ok {
		cc.fail(n.Pos, "function %q was not discovered during layout", fd.Name)
	}
	fi := cc.comp.funcs[idx]
	cc.pending.Call++

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
	argTmp := make([]int32, len(n.Args))
	for i, a := range n.Args {
		p := fd.Params[i]
		psize := flatSize(p.DeclType)
		preg := fi.localOff[p.Slot]
		if p.Dir == glsl.DirOut {
			argTmp[i] = -1
			if !indirect {
				cc.emit(instr{op: opZero, dst: preg, n: psize})
			}
			continue
		}
		r, dir := cc.compileExpr(a)
		if dir {
			for _, later := range n.Args[i+1:] {
				if hasSideEffects(later) {
					r = cc.materialize(r, true, psize)
					dir = false
					break
				}
			}
		}
		if indirect {
			argTmp[i] = cc.materialize(r, dir, psize)
		} else {
			cc.emit(instr{op: opMov, dst: preg, a: r, n: psize})
		}
	}
	if indirect {
		for i, p := range fd.Params {
			psize := flatSize(p.DeclType)
			preg := fi.localOff[p.Slot]
			if p.Dir == glsl.DirOut {
				cc.emit(instr{op: opZero, dst: preg, n: psize})
			} else {
				cc.emit(instr{op: opMov, dst: preg, a: argTmp[i], n: psize})
			}
		}
	}
	cc.flushStats()
	cc.emit(instr{op: opCall, aux: idx})
	// A discard in the callee's own body unwinds exactly one level in the
	// interpreter: this call's out/inout writebacks (and their Stats) still
	// run, then the invocation aborts. Capture the flag, run the epilogue,
	// then halt if it was set (see Exec.evalUserCall's ctrlDiscard path).
	dflag := cc.temp(1)
	cc.emit(instr{op: opDiscardTake, dst: dflag})

	var ret int32
	if fi.retSize > 0 {
		ret = cc.temp(fi.retSize)
		cc.emit(instr{op: opMov, dst: ret, a: fi.retBase, n: fi.retSize})
	}
	// Copy out/inout parameters before any writeback l-value evaluation
	// can reuse callee registers, then store them in parameter order.
	type writeback struct {
		arg  glsl.Expr
		tmp  int32
		decl *glsl.VarDecl
	}
	var wbs []writeback
	for i, p := range fd.Params {
		if p.Dir == glsl.DirOut || p.Dir == glsl.DirInOut {
			size := flatSize(p.DeclType)
			tmp := cc.temp(size)
			cc.emit(instr{op: opMov, dst: tmp, a: fi.localOff[p.Slot], n: size})
			wbs = append(wbs, writeback{arg: n.Args[i], tmp: tmp, decl: p})
		}
	}
	for _, wb := range wbs {
		lv := cc.compileLValue(wb.arg)
		cc.store(lv, wb.tmp, false, wb.decl.DeclType)
		cc.pending.Mov += uint64(maxI(1, wb.decl.DeclType.ComponentCount()))
	}
	cc.flushStats()
	cc.emit(instr{op: opDiscardHalt, a: dflag})
	return ret, false
}

func (cc *compiler) compileBuiltin(n *glsl.CallExpr) (int32, bool) {
	sig := n.Builtin
	if sig == nil {
		cc.fail(n.Pos, "unresolved builtin %q", n.Callee)
	}
	if len(n.Args) > 3 {
		cc.fail(n.Pos, "builtin %q has more than 3 arguments", n.Callee)
	}
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
	cc.addBuiltinStats(sig.ID, int(d.nc), int(d.an), int(d.dim))
	cc.comp.builtins = append(cc.comp.builtins, d)
	cc.emit(instr{op: opBuiltin, aux: int32(len(cc.comp.builtins) - 1)})
	return out, false
}

// addBuiltinStats reproduces the per-builtin Stats accounting of
// Exec.evalBuiltin at compile time (all counts are static in the argument
// shapes).
func (cc *compiler) addBuiltinStats(id glsl.BuiltinID, nc, an, dim int) {
	s := &cc.pending
	u := func(x int) uint64 { return uint64(x) }
	switch id {
	case glsl.BRadians, glsl.BDegrees:
		s.Mul += u(nc)
	case glsl.BSin, glsl.BCos, glsl.BAsin, glsl.BAcos, glsl.BAtan:
		s.SFU += u(nc)
	case glsl.BTan:
		s.SFU += u(2 * nc)
	case glsl.BAtan2:
		s.SFU += u(2 * nc)
	case glsl.BPow:
		s.SFU += u(2 * nc)
		s.Mul += u(nc)
	case glsl.BExp, glsl.BLog:
		s.SFU += u(nc)
		s.Mul += u(nc)
	case glsl.BExp2, glsl.BLog2:
		s.SFU += u(nc)
	case glsl.BSqrt:
		s.SFU += u(nc)
		s.Mul += u(nc)
	case glsl.BInverseSqrt:
		s.SFU += u(nc)
	case glsl.BAbs:
		s.Mov += u(nc)
	case glsl.BSign:
		s.Cmp += u(2 * nc)
	case glsl.BFloor, glsl.BCeil:
		s.Add += u(nc)
	case glsl.BFract:
		s.Add += u(2 * nc)
	case glsl.BMod:
		s.Div += u(nc)
		s.Mul += u(nc)
		s.Add += u(2 * nc)
	case glsl.BMin, glsl.BMax:
		s.Cmp += u(nc)
	case glsl.BClamp:
		s.Cmp += u(2 * nc)
	case glsl.BMix:
		s.Mul += u(2 * nc)
		s.Add += u(2 * nc)
	case glsl.BStep:
		s.Cmp += u(nc)
		s.Select += u(nc)
	case glsl.BSmoothstep:
		s.Add += u(3 * nc)
		s.Mul += u(3 * nc)
		s.Div += u(nc)
		s.Cmp += u(2 * nc)
	case glsl.BLength:
		s.Mul += u(an)
		s.Add += u(an - 1)
		s.SFU++
	case glsl.BDistance:
		s.Mul += u(an)
		s.Add += u(2*an - 1)
		s.SFU++
	case glsl.BDot:
		s.Mul += u(an)
		s.Add += u(an - 1)
	case glsl.BCross:
		s.Mul += 6
		s.Add += 3
	case glsl.BNormalize:
		s.Mul += u(2 * an)
		s.Add += u(an - 1)
		s.SFU++
	case glsl.BFaceforward:
		s.Mul += u(an)
		s.Add += u(an - 1)
		s.Cmp++
		s.Select += u(an)
	case glsl.BReflect:
		s.Mul += u(3 * an)
		s.Add += u(2*an - 1)
	case glsl.BRefract:
		s.Mul += u(4 * an)
		s.Add += u(2 * an)
		s.SFU++
	case glsl.BMatrixCompMult:
		s.Mul += u(dim * dim)
	case glsl.BLessThan, glsl.BLessThanEqual, glsl.BGreaterThan, glsl.BGreaterThanEqual,
		glsl.BEqual, glsl.BNotEqual:
		s.Cmp += u(an)
	case glsl.BAny, glsl.BAll, glsl.BNot:
		s.Logic += u(an)
	case glsl.BTexture2D, glsl.BTexture2DBias, glsl.BTexture2DLod,
		glsl.BTextureCube, glsl.BTextureCubeBias, glsl.BTextureCubeLod:
		s.Tex++
	case glsl.BTexture2DProj3, glsl.BTexture2DProj4,
		glsl.BTexture2DProjLod3, glsl.BTexture2DProjLod4:
		s.Tex++
		s.Div += 2
	default:
		cc.fail(glsl.Pos{}, "builtin id %d not implemented by the bytecode compiler", id)
	}
}

func maxI32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
