package shader

// Program-binary serialization for Compiled: the payload behind the gles
// OES_get_program_binary-style entry points and core's persistent compile
// cache. The blob carries everything the VM and the link tables need at
// runtime — the specialized bytecode stream, the Stats flush table, builtin
// call descriptors, the register layout, and interface-variable stubs
// (name/slot/type for every uniform, attribute and varying) — and nothing
// else: the full AST is dropped, so an unmarshaled Compiled supports VM
// execution and program linking but not the tree-walking interpreter.
//
// The format is versioned and defensive: UnmarshalCompiled never panics on
// truncated or corrupt input, it returns an error (callers fall back to a
// source compile). Compatibility across format revisions is intentionally
// not attempted — a version mismatch is an error, mirroring how GL program
// binaries are invalidated by driver updates.

import (
	"encoding/binary"
	"fmt"
	"math"

	"glescompute/internal/glsl"
)

// BinaryFormatVersion identifies the Compiled wire format. Bump it whenever
// the instruction set, the Stats layout, or any serialized structure
// changes shape; stale blobs then unmarshal to ErrBinaryVersion.
const BinaryFormatVersion = 1

var binaryMagic = [4]byte{'G', 'C', 'P', 'B'}

// ErrBinaryVersion reports a well-formed blob written by an incompatible
// format revision.
var ErrBinaryVersion = fmt.Errorf("shader: program binary format version mismatch (want %d)", BinaryFormatVersion)

// ---- writer ----

type binWriter struct{ buf []byte }

func (w *binWriter) u8(v uint8)    { w.buf = append(w.buf, v) }
func (w *binWriter) u32(v uint32)  { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *binWriter) u64(v uint64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *binWriter) i32(v int32)   { w.u32(uint32(v)) }
func (w *binWriter) f32(v float32) { w.u32(math.Float32bits(v)) }
func (w *binWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *binWriter) stats(s *Stats) {
	w.u64(s.Add)
	w.u64(s.Mul)
	w.u64(s.Div)
	w.u64(s.Cmp)
	w.u64(s.Logic)
	w.u64(s.Mov)
	w.u64(s.Select)
	w.u64(s.SFU)
	w.u64(s.Tex)
	w.u64(s.Branch)
	w.u64(s.Call)
	w.u64(s.Invocations)
}

func (w *binWriter) typ(t *glsl.Type) {
	w.u8(uint8(t.Kind))
	switch t.Kind {
	case glsl.KArray:
		w.i32(int32(t.ArrayLen))
		w.typ(t.Elem)
	case glsl.KStruct:
		w.str(t.Struct.Name)
		w.u32(uint32(len(t.Struct.Fields)))
		for _, f := range t.Struct.Fields {
			w.str(f.Name)
			w.typ(f.Type)
		}
	}
}

func (w *binWriter) decls(ds []*glsl.VarDecl) {
	w.u32(uint32(len(ds)))
	for _, d := range ds {
		w.str(d.Name)
		w.i32(int32(d.Slot))
		w.typ(d.DeclType)
	}
}

// MarshalBinary serializes the Compiled into a self-contained program
// binary blob.
func (c *Compiled) MarshalBinary() ([]byte, error) {
	if c == nil || c.Prog == nil {
		return nil, fmt.Errorf("shader: MarshalBinary: nil Compiled")
	}
	w := &binWriter{}
	w.buf = append(w.buf, binaryMagic[:]...)
	w.u32(BinaryFormatVersion)
	w.u8(uint8(c.Prog.Stage))

	// Interface-variable stubs, enough to rebuild link tables and drive
	// SetGlobal/ReadGlobalFlat against the serialized register layout.
	w.decls(c.Prog.Uniforms)
	w.decls(c.Prog.Attributes)
	w.decls(c.Prog.Varyings)

	// Bytecode stream.
	w.u32(uint32(len(c.code)))
	for i := range c.code {
		in := &c.code[i]
		w.i32(int32(in.op))
		w.i32(in.dst)
		w.i32(in.a)
		w.i32(in.b)
		w.i32(in.c)
		w.i32(in.n)
		w.i32(in.aux)
		w.f32(in.imm)
	}
	w.i32(c.initEntry)
	w.i32(c.mainEntry)

	w.u32(uint32(len(c.stats)))
	for i := range c.stats {
		w.stats(&c.stats[i])
	}
	w.u32(uint32(len(c.poss)))
	for _, p := range c.poss {
		w.i32(int32(p.Line))
		w.i32(int32(p.Col))
	}
	w.u32(uint32(len(c.builtins)))
	for i := range c.builtins {
		b := &c.builtins[i]
		w.i32(int32(b.id))
		w.i32(b.dst)
		w.i32(b.args[0])
		w.i32(b.args[1])
		w.i32(b.args[2])
		for _, s := range b.scalar {
			if s {
				w.u8(1)
			} else {
				w.u8(0)
			}
		}
		w.i32(b.nargs)
		w.i32(b.nc)
		w.i32(b.an)
		w.i32(b.dim)
	}

	w.i32(c.nregs)
	w.i32(c.globalBase)
	w.i32(c.globalEnd)
	w.u32(uint32(len(c.globalOff)))
	for _, o := range c.globalOff {
		w.i32(o)
	}
	for _, o := range c.builtinOff {
		w.i32(o)
	}
	w.u32(uint32(len(c.mutatedRanges)))
	for _, r := range c.mutatedRanges {
		w.i32(r[0])
		w.i32(r[1])
	}
	// Only each function's entry PC is live at runtime (opCall dispatch);
	// frames and AST links are compile-time state.
	w.u32(uint32(len(c.funcs)))
	for _, fi := range c.funcs {
		w.i32(fi.entry)
	}
	w.i32(c.nloops)
	w.i32(c.maxDepth)
	return w.buf, nil
}

// ---- reader ----

type binReader struct {
	buf []byte
	off int
	err error
}

func (r *binReader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("shader: program binary: "+format, args...)
	}
}

func (r *binReader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *binReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *binReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// flag reads a bool written as one byte; any byte but 0 or 1 is corrupt
// (accepting it would decode a blob the writer can never produce).
func (r *binReader) flag() bool {
	v := r.u8()
	if v > 1 {
		r.fail("flag byte %d at byte %d is neither 0 nor 1", v, r.off-1)
	}
	return v == 1
}

func (r *binReader) i32() int32   { return int32(r.u32()) }
func (r *binReader) f32() float32 { return math.Float32frombits(r.u32()) }

func (r *binReader) str() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if int(n) < 0 || r.off+int(n) > len(r.buf) {
		r.fail("string length %d overruns buffer at byte %d", n, r.off)
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// count reads a length prefix and bounds it by the minimum per-element
// encoded size, so corrupt counts fail fast instead of allocating wild.
func (r *binReader) count(minElemBytes int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if minElemBytes > 0 && int(n) > (len(r.buf)-r.off)/minElemBytes {
		r.fail("element count %d overruns buffer at byte %d", n, r.off)
		return 0
	}
	return int(n)
}

func (r *binReader) stats() Stats {
	var s Stats
	s.Add = r.u64()
	s.Mul = r.u64()
	s.Div = r.u64()
	s.Cmp = r.u64()
	s.Logic = r.u64()
	s.Mov = r.u64()
	s.Select = r.u64()
	s.SFU = r.u64()
	s.Tex = r.u64()
	s.Branch = r.u64()
	s.Call = r.u64()
	s.Invocations = r.u64()
	return s
}

// maxTypeDepth bounds recursive type decoding; real GLSL ES types nest a
// handful of levels at most.
const maxTypeDepth = 32

func (r *binReader) typ(depth int) *glsl.Type {
	if depth > maxTypeDepth {
		r.fail("type nesting exceeds %d levels", maxTypeDepth)
		return glsl.TypeInvalid
	}
	kind := glsl.BasicKind(r.u8())
	if r.err != nil {
		return glsl.TypeInvalid
	}
	switch kind {
	case glsl.KArray:
		n := int(r.i32())
		elem := r.typ(depth + 1)
		if r.err != nil {
			return glsl.TypeInvalid
		}
		if n <= 0 || n > 1<<20 {
			r.fail("array length %d out of range", n)
			return glsl.TypeInvalid
		}
		return glsl.ArrayOf(elem, n)
	case glsl.KStruct:
		name := r.str()
		nf := r.count(5)
		info := &glsl.StructInfo{Name: name}
		for i := 0; i < nf; i++ {
			fname := r.str()
			ft := r.typ(depth + 1)
			info.Fields = append(info.Fields, glsl.StructField{Name: fname, Type: ft})
		}
		return &glsl.Type{Kind: glsl.KStruct, Struct: info}
	default:
		t := &glsl.Type{Kind: kind}
		if !validBasicKind(kind) {
			r.fail("unknown type kind %d", kind)
			return glsl.TypeInvalid
		}
		return t
	}
}

func validBasicKind(k glsl.BasicKind) bool {
	switch k {
	case glsl.KBool, glsl.KInt, glsl.KFloat,
		glsl.KVec2, glsl.KVec3, glsl.KVec4,
		glsl.KBVec2, glsl.KBVec3, glsl.KBVec4,
		glsl.KIVec2, glsl.KIVec3, glsl.KIVec4,
		glsl.KMat2, glsl.KMat3, glsl.KMat4,
		glsl.KSampler2D, glsl.KSamplerCube, glsl.KVoid:
		return true
	}
	return false
}

func (r *binReader) decls(qual glsl.Qualifier) []*glsl.VarDecl {
	n := r.count(9)
	var ds []*glsl.VarDecl
	for i := 0; i < n; i++ {
		name := r.str()
		slot := int(r.i32())
		t := r.typ(0)
		if r.err != nil {
			return nil
		}
		if slot < 0 || slot > 1<<20 {
			r.fail("variable %q has slot %d out of range", name, slot)
			return nil
		}
		ds = append(ds, &glsl.VarDecl{Name: name, DeclType: t, Qual: qual, Slot: slot})
	}
	return ds
}

// UnmarshalCompiled decodes a program binary produced by MarshalBinary.
// The result executes on the VM only (Prog carries interface stubs, not the
// AST); corrupt or truncated blobs return an error, version skew returns
// ErrBinaryVersion.
func UnmarshalCompiled(data []byte) (*Compiled, error) {
	r := &binReader{buf: data}
	if len(data) < 8 || data[0] != binaryMagic[0] || data[1] != binaryMagic[1] ||
		data[2] != binaryMagic[2] || data[3] != binaryMagic[3] {
		return nil, fmt.Errorf("shader: program binary: bad magic")
	}
	r.off = 4
	if v := r.u32(); v != BinaryFormatVersion {
		return nil, ErrBinaryVersion
	}
	stage := glsl.ShaderStage(r.u8())
	if stage != glsl.StageVertex && stage != glsl.StageFragment {
		return nil, fmt.Errorf("shader: program binary: bad stage %d", stage)
	}
	prog := &glsl.Program{Stage: stage}
	prog.Uniforms = r.decls(glsl.QualUniform)
	prog.Attributes = r.decls(glsl.QualAttribute)
	prog.Varyings = r.decls(glsl.QualVarying)

	c := &Compiled{Prog: prog}
	ncode := r.count(32)
	c.code = make([]instr, ncode)
	for i := 0; i < ncode; i++ {
		c.code[i] = instr{
			op:  opcode(r.i32()),
			dst: r.i32(),
			a:   r.i32(),
			b:   r.i32(),
			c:   r.i32(),
			n:   r.i32(),
			aux: r.i32(),
			imm: r.f32(),
		}
	}
	c.initEntry = r.i32()
	c.mainEntry = r.i32()

	nstats := r.count(96)
	c.stats = make([]Stats, nstats)
	for i := 0; i < nstats; i++ {
		c.stats[i] = r.stats()
	}
	nposs := r.count(8)
	c.poss = make([]glsl.Pos, nposs)
	for i := 0; i < nposs; i++ {
		c.poss[i] = glsl.Pos{Line: int(r.i32()), Col: int(r.i32())}
	}
	nb := r.count(39)
	c.builtins = make([]builtinDesc, nb)
	for i := 0; i < nb; i++ {
		b := &c.builtins[i]
		b.id = glsl.BuiltinID(r.i32())
		b.dst = r.i32()
		b.args[0] = r.i32()
		b.args[1] = r.i32()
		b.args[2] = r.i32()
		for j := range b.scalar {
			b.scalar[j] = r.flag()
		}
		b.nargs = r.i32()
		b.nc = r.i32()
		b.an = r.i32()
		b.dim = r.i32()
	}

	c.nregs = r.i32()
	c.globalBase = r.i32()
	c.globalEnd = r.i32()
	noff := r.count(4)
	c.globalOff = make([]int32, noff)
	for i := 0; i < noff; i++ {
		c.globalOff[i] = r.i32()
	}
	for i := range c.builtinOff {
		c.builtinOff[i] = r.i32()
	}
	nmut := r.count(8)
	c.mutatedRanges = make([][2]int32, nmut)
	for i := 0; i < nmut; i++ {
		c.mutatedRanges[i] = [2]int32{r.i32(), r.i32()}
	}
	nfn := r.count(4)
	c.funcs = make([]*funcInfo, nfn)
	for i := 0; i < nfn; i++ {
		c.funcs[i] = &funcInfo{entry: r.i32()}
	}
	c.nloops = r.i32()
	c.maxDepth = r.i32()
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("shader: program binary: %d trailing bytes", len(data)-r.off)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// validate sanity-checks cross-references a hostile blob could break, so a
// corrupt cache entry fails closed instead of crashing a VM mid-draw.
func (c *Compiled) validate() error {
	ncode := int32(len(c.code))
	if c.nregs < 0 || c.nregs > 1<<24 {
		return fmt.Errorf("shader: program binary: register file size %d out of range", c.nregs)
	}
	if c.initEntry < 0 || c.initEntry > ncode || c.mainEntry < 0 || c.mainEntry > ncode {
		return fmt.Errorf("shader: program binary: entry point out of range")
	}
	if c.globalBase < 0 || c.globalEnd < c.globalBase || c.globalEnd > c.nregs {
		return fmt.Errorf("shader: program binary: global window [%d,%d) outside register file", c.globalBase, c.globalEnd)
	}
	for _, o := range c.globalOff {
		if o < 0 || o > c.nregs {
			return fmt.Errorf("shader: program binary: global offset %d outside register file", o)
		}
	}
	for _, r := range c.mutatedRanges {
		// Entries are {offset, length} pairs (see buildMutatedRanges).
		if r[0] < 0 || r[1] < 0 || r[0]+r[1] > c.nregs {
			return fmt.Errorf("shader: program binary: mutated range at %d length %d outside register file", r[0], r[1])
		}
	}
	for _, fi := range c.funcs {
		if fi.entry < 0 || fi.entry > ncode {
			return fmt.Errorf("shader: program binary: function entry %d out of range", fi.entry)
		}
	}
	for i := range c.code {
		in := &c.code[i]
		switch in.op {
		case opStats:
			if int(in.aux) >= len(c.stats) || in.aux < 0 {
				return fmt.Errorf("shader: program binary: opStats references stats entry %d of %d", in.aux, len(c.stats))
			}
		case opCall:
			if int(in.aux) >= len(c.funcs) || in.aux < 0 {
				return fmt.Errorf("shader: program binary: opCall references function %d of %d", in.aux, len(c.funcs))
			}
		case opBuiltin:
			if int(in.aux) >= len(c.builtins) || in.aux < 0 {
				return fmt.Errorf("shader: program binary: opBuiltin references descriptor %d of %d", in.aux, len(c.builtins))
			}
		case opJmp, opJz, opJnz:
			if in.aux < 0 || in.aux > ncode {
				return fmt.Errorf("shader: program binary: jump target %d out of range", in.aux)
			}
		}
	}
	return nil
}
