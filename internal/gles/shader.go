package gles

import (
	"fmt"
	"strings"

	"glescompute/internal/glsl"
	"glescompute/internal/shader"
)

// Shader is a shader object.
type Shader struct {
	id       uint32
	shType   uint32
	source   string
	compiled bool
	infoLog  string
	prog     *glsl.Program
}

// CreateShader mirrors glCreateShader.
func (c *Context) CreateShader(shType uint32) uint32 {
	if shType != VERTEX_SHADER && shType != FRAGMENT_SHADER {
		c.setErr(INVALID_ENUM, "CreateShader: bad type 0x%04x", shType)
		return 0
	}
	id := c.nextShaderID
	c.nextShaderID++
	c.shaders[id] = &Shader{id: id, shType: shType}
	return id
}

// DeleteShader mirrors glDeleteShader.
func (c *Context) DeleteShader(id uint32) { delete(c.shaders, id) }

// IsShader mirrors glIsShader.
func (c *Context) IsShader(id uint32) bool {
	_, ok := c.shaders[id]
	return ok
}

// ShaderSource mirrors glShaderSource.
func (c *Context) ShaderSource(id uint32, src string) {
	s := c.shaders[id]
	if s == nil {
		c.setErr(INVALID_VALUE, "ShaderSource: no shader %d", id)
		return
	}
	s.source = src
}

// CompileShader mirrors glCompileShader, running the full GLSL ES 1.00
// front-end from internal/glsl.
func (c *Context) CompileShader(id uint32) {
	s := c.shaders[id]
	if s == nil {
		c.setErr(INVALID_VALUE, "CompileShader: no shader %d", id)
		return
	}
	c.transfers.CompileCount++
	stage := glsl.StageVertex
	if s.shType == FRAGMENT_SHADER {
		stage = glsl.StageFragment
	}
	prog, errs := glsl.CompileSource(s.source, stage, glsl.CheckOptions{
		StrictAppendixA: c.cfg.StrictAppendixA,
	})
	if errs.Err() != nil {
		s.compiled = false
		s.prog = nil
		s.infoLog = errs.Error()
		return
	}
	s.compiled = true
	s.prog = prog
	var log strings.Builder
	for _, w := range prog.Warnings {
		log.WriteString("warning: ")
		log.WriteString(w.Error())
		log.WriteString("\n")
	}
	s.infoLog = log.String()
}

// GetShaderiv mirrors glGetShaderiv.
func (c *Context) GetShaderiv(id, pname uint32) int {
	s := c.shaders[id]
	if s == nil {
		c.setErr(INVALID_VALUE, "GetShaderiv: no shader %d", id)
		return 0
	}
	switch pname {
	case COMPILE_STATUS:
		if s.compiled {
			return 1
		}
		return 0
	case INFO_LOG_LENGTH:
		return len(s.infoLog)
	case SHADER_SOURCE_LENGTH:
		return len(s.source)
	case SHADER_TYPE:
		return int(s.shType)
	case DELETE_STATUS:
		return 0
	default:
		c.setErr(INVALID_ENUM, "GetShaderiv: bad pname 0x%04x", pname)
		return 0
	}
}

// GetShaderInfoLog mirrors glGetShaderInfoLog.
func (c *Context) GetShaderInfoLog(id uint32) string {
	s := c.shaders[id]
	if s == nil {
		c.setErr(INVALID_VALUE, "GetShaderInfoLog: no shader %d", id)
		return ""
	}
	return s.infoLog
}

// ---- Programs ----

// uniformLeaf is one location-addressable uniform: a scalar, vector,
// matrix, sampler, or the head of a basic-typed array.
type uniformLeaf struct {
	name     string // canonical name ("u", "u[2]", "s.field[1].x"-style paths)
	rootName string
	path     []int      // Agg indices from the root value to the leaf
	leafType *glsl.Type // basic type of one element
	arrayLen int        // >=1; number of consecutive elements settable here
}

// varyingLink is one vertex→fragment varying match.
type varyingLink struct {
	vsDecl *glsl.VarDecl
	fsDecl *glsl.VarDecl
	offset int // component offset into the flattened varying vector
	comps  int // flattened component count
}

// Program is a program object.
type Program struct {
	id      uint32
	vs, fs  uint32
	linked  bool
	infoLog string

	vsProg *glsl.Program
	fsProg *glsl.Program

	// Bytecode compiled once at link time and shared by every draw and
	// worker (the VM register machine replaces the AST interpreter on the
	// hot path). Nil on interpreter contexts, which never run it.
	vsCode *shader.Compiled
	fsCode *shader.Compiled

	boundAttribs map[string]int
	attribLocs   map[string]int // post-link
	attribDecls  []*glsl.VarDecl

	uniformLeaves []uniformLeaf
	uniformLoc    map[string]int
	uniformVals   map[string]*shader.Value // root name -> value

	varyings  []varyingLink
	varyComps int
}

// CreateProgram mirrors glCreateProgram.
func (c *Context) CreateProgram() uint32 {
	id := c.nextProgID
	c.nextProgID++
	c.programs[id] = &Program{
		id:           id,
		boundAttribs: map[string]int{},
	}
	return id
}

// DeleteProgram mirrors glDeleteProgram.
func (c *Context) DeleteProgram(id uint32) {
	delete(c.programs, id)
	if c.current == id {
		c.current = 0
	}
}

// IsProgram mirrors glIsProgram.
func (c *Context) IsProgram(id uint32) bool {
	_, ok := c.programs[id]
	return ok
}

// AttachShader mirrors glAttachShader.
func (c *Context) AttachShader(prog, sh uint32) {
	p := c.programs[prog]
	s := c.shaders[sh]
	if p == nil || s == nil {
		c.setErr(INVALID_VALUE, "AttachShader: bad names %d/%d", prog, sh)
		return
	}
	if s.shType == VERTEX_SHADER {
		if p.vs != 0 {
			c.setErr(INVALID_OPERATION, "AttachShader: vertex shader already attached")
			return
		}
		p.vs = sh
	} else {
		if p.fs != 0 {
			c.setErr(INVALID_OPERATION, "AttachShader: fragment shader already attached")
			return
		}
		p.fs = sh
	}
}

// DetachShader mirrors glDetachShader.
func (c *Context) DetachShader(prog, sh uint32) {
	p := c.programs[prog]
	if p == nil {
		c.setErr(INVALID_VALUE, "DetachShader: no program %d", prog)
		return
	}
	if p.vs == sh {
		p.vs = 0
	} else if p.fs == sh {
		p.fs = 0
	} else {
		c.setErr(INVALID_OPERATION, "DetachShader: shader %d not attached", sh)
	}
}

// BindAttribLocation mirrors glBindAttribLocation (takes effect at link).
func (c *Context) BindAttribLocation(prog uint32, index int, name string) {
	p := c.programs[prog]
	if p == nil {
		c.setErr(INVALID_VALUE, "BindAttribLocation: no program %d", prog)
		return
	}
	if index < 0 || index >= c.caps.MaxVertexAttribs {
		c.setErr(INVALID_VALUE, "BindAttribLocation: index %d out of range", index)
		return
	}
	if strings.HasPrefix(name, "gl_") {
		c.setErr(INVALID_OPERATION, "BindAttribLocation: cannot bind gl_* names")
		return
	}
	p.boundAttribs[name] = index
}

// LinkProgram mirrors glLinkProgram: varying matching, attribute location
// assignment, uniform location table construction, resource limit checks.
func (c *Context) LinkProgram(id uint32) {
	p := c.programs[id]
	if p == nil {
		c.setErr(INVALID_VALUE, "LinkProgram: no program %d", id)
		return
	}
	c.transfers.LinkCount++
	p.linked = false
	p.infoLog = ""
	fail := func(format string, args ...interface{}) {
		p.infoLog += fmt.Sprintf(format, args...) + "\n"
	}

	vs := c.shaders[p.vs]
	fs := c.shaders[p.fs]
	if vs == nil || fs == nil {
		fail("link error: program needs both a vertex and a fragment shader (ES 2.0 has no fixed function stages)")
		return
	}
	if !vs.compiled || !fs.compiled {
		fail("link error: attached shaders are not all compiled")
		return
	}
	p.vsProg, p.fsProg = vs.prog, fs.prog

	if !c.linkTables(p, fail) {
		return
	}

	// Lower both stages to bytecode once per link; every draw call and
	// fragment worker reuses the compiled form. A VM context cannot run a
	// stage the compiler rejects, so that is a link error — never a
	// silent drop to the (5-8x slower) interpreter.
	if !c.cfg.UseInterpreter {
		var err error
		if p.vsCode, err = shader.Compile(p.vsProg); err != nil {
			fail("link error: vertex shader: %v", err)
			return
		}
		if p.fsCode, err = shader.Compile(p.fsProg); err != nil {
			fail("link error: fragment shader: %v", err)
			return
		}
	}

	p.linked = true
}

// linkTables builds every post-link table from the two stages' interface
// declarations: varying matching, attribute locations, the uniform leaf
// table, and the resource-limit checks. It is the shared back half of
// LinkProgram and ProgramBinary — a program restored from a binary rebuilds
// identical tables from the interface stubs carried in the blob.
func (c *Context) linkTables(p *Program, fail func(format string, args ...interface{})) bool {
	// Varying matching: every varying read by the FS must be written by a
	// VS varying of identical type.
	p.varyings = nil
	p.varyComps = 0
	varyRows := 0
	for _, fv := range p.fsProg.Varyings {
		vv := p.vsProg.LookupVarying(fv.Name)
		if vv == nil {
			fail("link error: fragment varying %q has no vertex counterpart", fv.Name)
			return false
		}
		if !vv.DeclType.Equal(fv.DeclType) {
			fail("link error: varying %q declared as %s in vertex shader but %s in fragment shader",
				fv.Name, vv.DeclType, fv.DeclType)
			return false
		}
		comps := flatComps(fv.DeclType)
		p.varyings = append(p.varyings, varyingLink{
			vsDecl: vv, fsDecl: fv, offset: p.varyComps, comps: comps,
		})
		p.varyComps += comps
		varyRows += varyingRows(fv.DeclType)
	}
	if varyRows > c.caps.MaxVaryingVectors {
		fail("link error: %d varying vectors exceed MAX_VARYING_VECTORS=%d", varyRows, c.caps.MaxVaryingVectors)
		return false
	}

	// Attribute locations.
	p.attribLocs = map[string]int{}
	p.attribDecls = nil
	used := make([]bool, c.caps.MaxVertexAttribs)
	for name, loc := range p.boundAttribs {
		if p.vsProg.LookupAttribute(name) != nil {
			p.attribLocs[name] = loc
		}
	}
	for _, a := range p.vsProg.Attributes {
		span := attribSpan(a.DeclType)
		if loc, ok := p.attribLocs[a.Name]; ok {
			for i := 0; i < span; i++ {
				if loc+i >= len(used) {
					fail("link error: attribute %q does not fit at bound location %d", a.Name, loc)
					return false
				}
				used[loc+i] = true
			}
			p.attribDecls = append(p.attribDecls, a)
			continue
		}
		p.attribDecls = append(p.attribDecls, a)
	}
	for _, a := range p.vsProg.Attributes {
		if _, ok := p.attribLocs[a.Name]; ok {
			continue
		}
		span := attribSpan(a.DeclType)
		loc := -1
		for cand := 0; cand+span <= len(used); cand++ {
			free := true
			for i := 0; i < span; i++ {
				if used[cand+i] {
					free = false
					break
				}
			}
			if free {
				loc = cand
				break
			}
		}
		if loc < 0 {
			fail("link error: too many attributes (MAX_VERTEX_ATTRIBS=%d)", c.caps.MaxVertexAttribs)
			return false
		}
		for i := 0; i < span; i++ {
			used[loc+i] = true
		}
		p.attribLocs[a.Name] = loc
	}

	// Uniforms: merge across stages, verify types agree, build leaf table.
	p.uniformLeaves = nil
	p.uniformLoc = map[string]int{}
	p.uniformVals = map[string]*shader.Value{}
	seen := map[string]*glsl.VarDecl{}
	addRoot := func(u *glsl.VarDecl) bool {
		if prev, ok := seen[u.Name]; ok {
			if !prev.DeclType.Equal(u.DeclType) {
				fail("link error: uniform %q declared as %s and %s in different stages",
					u.Name, prev.DeclType, u.DeclType)
				return false
			}
			return true
		}
		seen[u.Name] = u
		v := shader.Zero(u.DeclType)
		p.uniformVals[u.Name] = &v
		c.addUniformLeaves(p, u.Name, u.Name, u.DeclType, nil)
		return true
	}
	for _, u := range p.vsProg.Uniforms {
		if !addRoot(u) {
			return false
		}
	}
	for _, u := range p.fsProg.Uniforms {
		if !addRoot(u) {
			return false
		}
	}

	// Uniform storage limits (in vec4 vectors, per stage).
	if rows := uniformRowsOf(p.vsProg.Uniforms); rows > c.caps.MaxVertexUniformVectors {
		fail("link error: vertex uniforms need %d vectors, limit is %d", rows, c.caps.MaxVertexUniformVectors)
		return false
	}
	if rows := uniformRowsOf(p.fsProg.Uniforms); rows > c.caps.MaxFragmentUniformVectors {
		fail("link error: fragment uniforms need %d vectors, limit is %d", rows, c.caps.MaxFragmentUniformVectors)
		return false
	}
	return true
}

// ---- Program binaries (OES_get_program_binary-style) ----
//
// GetProgramBinary serializes a linked program's two bytecode stages plus
// the interface stubs the link tables need; ProgramBinary restores such a
// blob into a program object without running the GLSL front-end or the
// bytecode compiler — the expensive half of link. Binary programs are
// bytecode, so only VM contexts produce or accept them; a context
// configured with UseInterpreter rejects both directions.

// programBinaryMagic frames the two-stage container around the per-stage
// shader blobs (which carry their own magic and format version).
var programBinaryMagic = [4]byte{'G', 'C', 'P', '2'}

// GetProgramBinary mirrors glGetProgramBinaryOES: it returns a blob that
// ProgramBinary can restore on a compatible context, or nil with a GL
// error when the program is not linked or the context runs the
// interpreter.
func (c *Context) GetProgramBinary(id uint32) []byte {
	p := c.programs[id]
	if p == nil {
		c.setErr(INVALID_VALUE, "GetProgramBinary: no program %d", id)
		return nil
	}
	if !p.linked {
		c.setErr(INVALID_OPERATION, "GetProgramBinary: program %d is not linked", id)
		return nil
	}
	if c.cfg.UseInterpreter {
		c.setErr(INVALID_OPERATION, "GetProgramBinary: binary programs require the bytecode VM (context is configured with UseInterpreter)")
		return nil
	}
	vsBlob, err := p.vsCode.MarshalBinary()
	if err != nil {
		c.setErr(INVALID_OPERATION, "GetProgramBinary: %v", err)
		return nil
	}
	fsBlob, err := p.fsCode.MarshalBinary()
	if err != nil {
		c.setErr(INVALID_OPERATION, "GetProgramBinary: %v", err)
		return nil
	}
	blob := make([]byte, 0, 12+len(vsBlob)+len(fsBlob))
	blob = append(blob, programBinaryMagic[:]...)
	var n [4]byte
	putU32 := func(v uint32) {
		n[0], n[1], n[2], n[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		blob = append(blob, n[:]...)
	}
	putU32(uint32(len(vsBlob)))
	blob = append(blob, vsBlob...)
	putU32(uint32(len(fsBlob)))
	blob = append(blob, fsBlob...)
	return blob
}

// ProgramBinary mirrors glProgramBinaryOES: it populates program id from a
// GetProgramBinary blob, rebuilding the link tables from the interface
// stubs and skipping both the GLSL front-end and the bytecode compiler. On
// any decode failure the program is left unlinked with a GL error and an
// info log — callers fall back to a source compile+link, mirroring how GL
// program binaries are invalidated by driver updates.
func (c *Context) ProgramBinary(id uint32, blob []byte) {
	p := c.programs[id]
	if p == nil {
		c.setErr(INVALID_VALUE, "ProgramBinary: no program %d", id)
		return
	}
	if c.cfg.UseInterpreter {
		c.setErr(INVALID_OPERATION, "ProgramBinary: binary programs require the bytecode VM (context is configured with UseInterpreter)")
		return
	}
	p.linked = false
	p.infoLog = ""
	fail := func(format string, args ...interface{}) {
		p.infoLog += fmt.Sprintf(format, args...) + "\n"
		c.setErr(INVALID_OPERATION, "ProgramBinary: "+format, args...)
	}
	rdU32 := func(b []byte) uint32 {
		return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	}
	if len(blob) < 8 || blob[0] != programBinaryMagic[0] || blob[1] != programBinaryMagic[1] ||
		blob[2] != programBinaryMagic[2] || blob[3] != programBinaryMagic[3] {
		fail("binary error: bad container magic")
		return
	}
	rest := blob[4:]
	vsLen := int(rdU32(rest))
	rest = rest[4:]
	if vsLen < 0 || vsLen > len(rest) {
		fail("binary error: vertex stage length %d overruns blob", vsLen)
		return
	}
	vsBlob := rest[:vsLen]
	rest = rest[vsLen:]
	if len(rest) < 4 {
		fail("binary error: truncated fragment stage header")
		return
	}
	fsLen := int(rdU32(rest))
	rest = rest[4:]
	if fsLen != len(rest) {
		fail("binary error: fragment stage length %d does not match blob", fsLen)
		return
	}
	vsCode, err := shader.UnmarshalCompiled(vsBlob)
	if err != nil {
		fail("binary error: vertex stage: %v", err)
		return
	}
	fsCode, err := shader.UnmarshalCompiled(rest)
	if err != nil {
		fail("binary error: fragment stage: %v", err)
		return
	}
	if vsCode.Prog.Stage != glsl.StageVertex || fsCode.Prog.Stage != glsl.StageFragment {
		fail("binary error: stage order mismatch")
		return
	}
	p.vsProg, p.fsProg = vsCode.Prog, fsCode.Prog
	p.vsCode, p.fsCode = vsCode, fsCode
	if !c.linkTables(p, func(format string, args ...interface{}) {
		p.infoLog += fmt.Sprintf(format, args...) + "\n"
		c.setErr(INVALID_OPERATION, "ProgramBinary: "+format, args...)
	}) {
		return
	}
	c.transfers.BinaryLoadCount++
	p.linked = true
}

// newExecutor builds a shader executor for one stage of a linked program,
// fetching texels through the draw's resolved samplers: the bytecode VM
// by default, the AST interpreter when configured.
func (c *Context) newExecutor(prog *glsl.Program, code *shader.Compiled, tex *samplerTable) shader.Executor {
	if c.cfg.UseInterpreter {
		ex := shader.NewExec(prog, tex, c.cfg.SFU)
		ex.MaxLoopIter = c.maxLoopIter
		return ex
	}
	vm := shader.NewVM(code, tex, c.cfg.SFU)
	vm.MaxLoopIter = c.maxLoopIter
	return vm
}

// addUniformLeaves recursively enumerates location-addressable leaves.
func (c *Context) addUniformLeaves(p *Program, rootName, name string, t *glsl.Type, path []int) {
	switch t.Kind {
	case glsl.KStruct:
		for i, f := range t.Struct.Fields {
			sub := append(append([]int{}, path...), i)
			c.addUniformLeaves(p, rootName, name+"."+f.Name, f.Type, sub)
		}
	case glsl.KArray:
		if t.Elem.Kind == glsl.KStruct || t.Elem.Kind == glsl.KArray {
			for i := 0; i < t.ArrayLen; i++ {
				sub := append(append([]int{}, path...), i)
				c.addUniformLeaves(p, rootName, fmt.Sprintf("%s[%d]", name, i), t.Elem, sub)
			}
			return
		}
		// Array of basics: one location per element; element k is settable
		// with count up to ArrayLen-k. "name" aliases "name[0]".
		for i := 0; i < t.ArrayLen; i++ {
			sub := append(append([]int{}, path...), i)
			leafName := fmt.Sprintf("%s[%d]", name, i)
			loc := len(p.uniformLeaves)
			p.uniformLeaves = append(p.uniformLeaves, uniformLeaf{
				name: leafName, rootName: rootName, path: sub,
				leafType: t.Elem, arrayLen: t.ArrayLen - i,
			})
			p.uniformLoc[leafName] = loc
			if i == 0 {
				p.uniformLoc[name] = loc
			}
		}
	default:
		loc := len(p.uniformLeaves)
		p.uniformLeaves = append(p.uniformLeaves, uniformLeaf{
			name: name, rootName: rootName, path: append([]int{}, path...),
			leafType: t, arrayLen: 1,
		})
		p.uniformLoc[name] = loc
	}
}

// flatComps counts flattened float components for varying transport.
func flatComps(t *glsl.Type) int {
	switch t.Kind {
	case glsl.KArray:
		return t.ArrayLen * flatComps(t.Elem)
	default:
		return t.ComponentCount()
	}
}

// varyingRows counts vec4 rows a varying consumes (packing granularity).
func varyingRows(t *glsl.Type) int {
	switch t.Kind {
	case glsl.KArray:
		return t.ArrayLen * varyingRows(t.Elem)
	case glsl.KMat2:
		return 2
	case glsl.KMat3:
		return 3
	case glsl.KMat4:
		return 4
	default:
		return 1
	}
}

func uniformRowsOf(us []*glsl.VarDecl) int {
	rows := 0
	for _, u := range us {
		rows += uniformRows(u.DeclType)
	}
	return rows
}

func uniformRows(t *glsl.Type) int {
	switch t.Kind {
	case glsl.KArray:
		return t.ArrayLen * uniformRows(t.Elem)
	case glsl.KStruct:
		n := 0
		for _, f := range t.Struct.Fields {
			n += uniformRows(f.Type)
		}
		return n
	case glsl.KMat2:
		return 2
	case glsl.KMat3:
		return 3
	case glsl.KMat4:
		return 4
	default:
		return 1
	}
}

// attribSpan is the number of attribute locations a type occupies.
func attribSpan(t *glsl.Type) int {
	if t.IsMatrix() {
		return t.MatrixDim()
	}
	return 1
}

// GetProgramiv mirrors glGetProgramiv.
func (c *Context) GetProgramiv(id, pname uint32) int {
	p := c.programs[id]
	if p == nil {
		c.setErr(INVALID_VALUE, "GetProgramiv: no program %d", id)
		return 0
	}
	switch pname {
	case LINK_STATUS:
		if p.linked {
			return 1
		}
		return 0
	case VALIDATE_STATUS:
		if p.linked {
			return 1
		}
		return 0
	case INFO_LOG_LENGTH:
		return len(p.infoLog)
	case ACTIVE_UNIFORMS:
		return len(p.uniformLeaves)
	case ACTIVE_ATTRIBUTES:
		return len(p.attribDecls)
	case ATTACHED_SHADERS:
		n := 0
		if p.vs != 0 {
			n++
		}
		if p.fs != 0 {
			n++
		}
		return n
	default:
		c.setErr(INVALID_ENUM, "GetProgramiv: bad pname 0x%04x", pname)
		return 0
	}
}

// GetProgramInfoLog mirrors glGetProgramInfoLog.
func (c *Context) GetProgramInfoLog(id uint32) string {
	p := c.programs[id]
	if p == nil {
		c.setErr(INVALID_VALUE, "GetProgramInfoLog: no program %d", id)
		return ""
	}
	return p.infoLog
}

// UseProgram mirrors glUseProgram.
func (c *Context) UseProgram(id uint32) {
	if id == 0 {
		c.current = 0
		return
	}
	p := c.programs[id]
	if p == nil {
		c.setErr(INVALID_VALUE, "UseProgram: no program %d", id)
		return
	}
	if !p.linked {
		c.setErr(INVALID_OPERATION, "UseProgram: program %d is not linked", id)
		return
	}
	c.current = id
}

// ValidateProgram mirrors glValidateProgram (state-compatibility checks are
// folded into draw validation here).
func (c *Context) ValidateProgram(id uint32) {
	if c.programs[id] == nil {
		c.setErr(INVALID_VALUE, "ValidateProgram: no program %d", id)
	}
}

// GetAttribLocation mirrors glGetAttribLocation.
func (c *Context) GetAttribLocation(prog uint32, name string) int {
	p := c.programs[prog]
	if p == nil || !p.linked {
		c.setErr(INVALID_OPERATION, "GetAttribLocation: program not linked")
		return -1
	}
	if loc, ok := p.attribLocs[name]; ok {
		return loc
	}
	return -1
}

// GetUniformLocation mirrors glGetUniformLocation; supports dotted struct
// paths and indexed array elements ("mat.field", "arr[3]").
func (c *Context) GetUniformLocation(prog uint32, name string) int {
	p := c.programs[prog]
	if p == nil || !p.linked {
		c.setErr(INVALID_OPERATION, "GetUniformLocation: program not linked")
		return -1
	}
	if loc, ok := p.uniformLoc[name]; ok {
		return loc
	}
	return -1
}

// ActiveUniformInfo describes one active uniform (GetActiveUniform).
type ActiveUniformInfo struct {
	Name string
	Type uint32
	Size int
}

// GetActiveUniform mirrors glGetActiveUniform.
func (c *Context) GetActiveUniform(prog uint32, index int) ActiveUniformInfo {
	p := c.programs[prog]
	if p == nil || index < 0 || index >= len(p.uniformLeaves) {
		c.setErr(INVALID_VALUE, "GetActiveUniform: bad index %d", index)
		return ActiveUniformInfo{}
	}
	leaf := p.uniformLeaves[index]
	return ActiveUniformInfo{Name: leaf.name, Type: glTypeEnum(leaf.leafType), Size: leaf.arrayLen}
}

// ActiveAttribInfo describes one active attribute (GetActiveAttrib).
type ActiveAttribInfo struct {
	Name string
	Type uint32
	Size int
}

// GetActiveAttrib mirrors glGetActiveAttrib.
func (c *Context) GetActiveAttrib(prog uint32, index int) ActiveAttribInfo {
	p := c.programs[prog]
	if p == nil || index < 0 || index >= len(p.attribDecls) {
		c.setErr(INVALID_VALUE, "GetActiveAttrib: bad index %d", index)
		return ActiveAttribInfo{}
	}
	a := p.attribDecls[index]
	return ActiveAttribInfo{Name: a.Name, Type: glTypeEnum(a.DeclType), Size: 1}
}

func glTypeEnum(t *glsl.Type) uint32 {
	switch t.Kind {
	case glsl.KFloat:
		return FLOAT
	case glsl.KVec2:
		return FLOAT_VEC2
	case glsl.KVec3:
		return FLOAT_VEC3
	case glsl.KVec4:
		return FLOAT_VEC4
	case glsl.KInt:
		return INT
	case glsl.KIVec2:
		return INT_VEC2
	case glsl.KIVec3:
		return INT_VEC3
	case glsl.KIVec4:
		return INT_VEC4
	case glsl.KBool:
		return BOOL
	case glsl.KBVec2:
		return BOOL_VEC2
	case glsl.KBVec3:
		return BOOL_VEC3
	case glsl.KBVec4:
		return BOOL_VEC4
	case glsl.KMat2:
		return FLOAT_MAT2
	case glsl.KMat3:
		return FLOAT_MAT3
	case glsl.KMat4:
		return FLOAT_MAT4
	case glsl.KSampler2D:
		return SAMPLER_2D
	case glsl.KSamplerCube:
		return SAMPLER_CUBE
	}
	return 0
}

// ---- Uniform setters ----

// leafValue navigates to the leaf's element value (element elem of the
// addressed array, 0 for non-arrays).
func (p *Program) leafValue(leaf *uniformLeaf, elem int) *shader.Value {
	v := p.uniformVals[leaf.rootName]
	for _, step := range leaf.path {
		v = &v.Agg[step]
	}
	// For basic arrays the last path step already selected element 0's
	// index; walking siblings means stepping at the parent level.
	if elem > 0 {
		// Re-navigate with the final index advanced.
		v = p.uniformVals[leaf.rootName]
		for i, step := range leaf.path {
			if i == len(leaf.path)-1 {
				v = &v.Agg[step+elem]
			} else {
				v = &v.Agg[step]
			}
		}
	}
	return v
}

// uniformTarget validates a Uniform* call and returns program and leaf.
func (c *Context) uniformTarget(loc int, call string) (*Program, *uniformLeaf) {
	p := c.programs[c.current]
	if p == nil {
		c.setErr(INVALID_OPERATION, "%s: no program in use", call)
		return nil, nil
	}
	if loc < 0 {
		return nil, nil // location -1 is silently ignored per spec
	}
	if loc >= len(p.uniformLeaves) {
		c.setErr(INVALID_OPERATION, "%s: bad location %d", call, loc)
		return nil, nil
	}
	return p, &p.uniformLeaves[loc]
}

func (c *Context) uniformFloats(loc int, comps int, vals []float32, call string) {
	p, leaf := c.uniformTarget(loc, call)
	if leaf == nil {
		return
	}
	t := leaf.leafType
	if t.IsMatrix() || t.IsSampler() {
		c.setErr(INVALID_OPERATION, "%s: location %d has type %s", call, loc, t)
		return
	}
	if t.ComponentCount() != comps {
		c.setErr(INVALID_OPERATION, "%s: location %d has %d components, setter provides %d",
			call, loc, t.ComponentCount(), comps)
		return
	}
	if t.ComponentType().Kind == glsl.KInt {
		c.setErr(INVALID_OPERATION, "%s: location %d is integer-typed; use Uniform*i", call, loc)
		return
	}
	count := len(vals) / comps
	if count > leaf.arrayLen {
		c.setErr(INVALID_OPERATION, "%s: count %d exceeds array tail %d", call, count, leaf.arrayLen)
		return
	}
	for e := 0; e < count; e++ {
		dst := p.leafValue(leaf, e)
		for i := 0; i < comps; i++ {
			x := vals[e*comps+i]
			if t.ComponentType().Kind == glsl.KBool && x != 0 {
				x = 1
			}
			dst.F[i] = x
		}
	}
}

func (c *Context) uniformInts(loc int, comps int, vals []int32, call string) {
	p, leaf := c.uniformTarget(loc, call)
	if leaf == nil {
		return
	}
	t := leaf.leafType
	if t.IsMatrix() {
		c.setErr(INVALID_OPERATION, "%s: location %d has type %s", call, loc, t)
		return
	}
	if t.IsSampler() && comps != 1 {
		c.setErr(INVALID_OPERATION, "%s: sampler uniforms take a single int", call)
		return
	}
	if !t.IsSampler() && t.ComponentCount() != comps {
		c.setErr(INVALID_OPERATION, "%s: location %d has %d components, setter provides %d",
			call, loc, t.ComponentCount(), comps)
		return
	}
	if !t.IsSampler() && t.ComponentType().Kind == glsl.KFloat {
		c.setErr(INVALID_OPERATION, "%s: location %d is float-typed; use Uniform*f", call, loc)
		return
	}
	count := len(vals) / comps
	if count > leaf.arrayLen {
		c.setErr(INVALID_OPERATION, "%s: count %d exceeds array tail %d", call, count, leaf.arrayLen)
		return
	}
	for e := 0; e < count; e++ {
		dst := p.leafValue(leaf, e)
		for i := 0; i < comps; i++ {
			x := float32(vals[e*comps+i])
			if t.ComponentType().Kind == glsl.KBool && x != 0 {
				x = 1
			}
			dst.F[i] = x
		}
	}
}

// Uniform1f mirrors glUniform1f. The remaining setters follow the GL
// naming scheme.
func (c *Context) Uniform1f(loc int, x float32) { c.uniformFloats(loc, 1, []float32{x}, "Uniform1f") }

// Uniform2f mirrors glUniform2f.
func (c *Context) Uniform2f(loc int, x, y float32) {
	c.uniformFloats(loc, 2, []float32{x, y}, "Uniform2f")
}

// Uniform3f mirrors glUniform3f.
func (c *Context) Uniform3f(loc int, x, y, z float32) {
	c.uniformFloats(loc, 3, []float32{x, y, z}, "Uniform3f")
}

// Uniform4f mirrors glUniform4f.
func (c *Context) Uniform4f(loc int, x, y, z, w float32) {
	c.uniformFloats(loc, 4, []float32{x, y, z, w}, "Uniform4f")
}

// Uniform1fv mirrors glUniform1fv.
func (c *Context) Uniform1fv(loc int, vals []float32) { c.uniformFloats(loc, 1, vals, "Uniform1fv") }

// Uniform2fv mirrors glUniform2fv.
func (c *Context) Uniform2fv(loc int, vals []float32) { c.uniformFloats(loc, 2, vals, "Uniform2fv") }

// Uniform3fv mirrors glUniform3fv.
func (c *Context) Uniform3fv(loc int, vals []float32) { c.uniformFloats(loc, 3, vals, "Uniform3fv") }

// Uniform4fv mirrors glUniform4fv.
func (c *Context) Uniform4fv(loc int, vals []float32) { c.uniformFloats(loc, 4, vals, "Uniform4fv") }

// Uniform1i mirrors glUniform1i (also used to bind samplers to units).
func (c *Context) Uniform1i(loc int, x int32) { c.uniformInts(loc, 1, []int32{x}, "Uniform1i") }

// Uniform2i mirrors glUniform2i.
func (c *Context) Uniform2i(loc int, x, y int32) { c.uniformInts(loc, 2, []int32{x, y}, "Uniform2i") }

// Uniform3i mirrors glUniform3i.
func (c *Context) Uniform3i(loc int, x, y, z int32) {
	c.uniformInts(loc, 3, []int32{x, y, z}, "Uniform3i")
}

// Uniform4i mirrors glUniform4i.
func (c *Context) Uniform4i(loc int, x, y, z, w int32) {
	c.uniformInts(loc, 4, []int32{x, y, z, w}, "Uniform4i")
}

// Uniform1iv mirrors glUniform1iv.
func (c *Context) Uniform1iv(loc int, vals []int32) { c.uniformInts(loc, 1, vals, "Uniform1iv") }

// UniformMatrix2fv mirrors glUniformMatrix2fv (column-major, no transpose
// in ES 2.0).
func (c *Context) UniformMatrix2fv(loc int, vals []float32) { c.uniformMatrix(loc, 2, vals) }

// UniformMatrix3fv mirrors glUniformMatrix3fv.
func (c *Context) UniformMatrix3fv(loc int, vals []float32) { c.uniformMatrix(loc, 3, vals) }

// UniformMatrix4fv mirrors glUniformMatrix4fv.
func (c *Context) UniformMatrix4fv(loc int, vals []float32) { c.uniformMatrix(loc, 4, vals) }

func (c *Context) uniformMatrix(loc, dim int, vals []float32) {
	call := fmt.Sprintf("UniformMatrix%dfv", dim)
	p, leaf := c.uniformTarget(loc, call)
	if leaf == nil {
		return
	}
	if leaf.leafType.MatrixDim() != dim {
		c.setErr(INVALID_OPERATION, "%s: location %d has type %s", call, loc, leaf.leafType)
		return
	}
	n := dim * dim
	count := len(vals) / n
	if count > leaf.arrayLen {
		c.setErr(INVALID_OPERATION, "%s: count %d exceeds array tail %d", call, count, leaf.arrayLen)
		return
	}
	for e := 0; e < count; e++ {
		dst := p.leafValue(leaf, e)
		copy(dst.F[:n], vals[e*n:(e+1)*n])
	}
}

// GetUniformfv returns the stored value of a uniform (debug/testing aid
// mirroring glGetUniformfv).
func (c *Context) GetUniformfv(prog uint32, loc int) []float32 {
	p := c.programs[prog]
	if p == nil || loc < 0 || loc >= len(p.uniformLeaves) {
		c.setErr(INVALID_OPERATION, "GetUniformfv: bad program/location")
		return nil
	}
	leaf := &p.uniformLeaves[loc]
	v := p.leafValue(leaf, 0)
	n := leaf.leafType.ComponentCount()
	if leaf.leafType.IsSampler() {
		n = 1
	}
	out := make([]float32, n)
	copy(out, v.F[:n])
	return out
}
