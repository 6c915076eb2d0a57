package gles

import (
	"strings"
	"testing"

	"glescompute/internal/shader"
)

// binaryFS exercises the structures a program binary must carry: uniform
// arrays, loops with bounded trip counts, builtins (specialized opcodes),
// texture fetches, and varyings.
const binaryFS = `
precision mediump float;
varying vec2 v_texcoord;
uniform sampler2D u_tex;
uniform float u_scale[4];
uniform float u_n;
float accum(float n) {
	float s = 0.0;
	for (float k = 0.0; k < 16.0; k += 1.0) {
		if (k >= n) { break; }
		s += exp(k * 0.125) + floor(k * 0.5);
	}
	return s;
}
void main() {
	vec4 t = texture2D(u_tex, v_texcoord);
	float s = accum(u_n);
	gl_FragColor = clamp(t * u_scale[0] + vec4(s * 0.001) * u_scale[1]
		+ vec4(u_scale[2], u_scale[3], 0.0, 1.0) * 0.125, 0.0, 1.0);
}
`

// setupBinaryDraw binds the checkerboard texture, uniforms and quad for
// prog, ready to draw.
func setupBinaryDraw(t *testing.T, c *Context, prog uint32) {
	t.Helper()
	c.UseProgram(prog)
	tex := c.CreateTexture()
	c.BindTexture(TEXTURE_2D, tex)
	px := make([]byte, 4*4*4)
	for i := range px {
		px[i] = byte(i * 7)
	}
	c.TexImage2D(TEXTURE_2D, 0, RGBA, 4, 4, 0, RGBA, UNSIGNED_BYTE, px)
	c.TexParameteri(TEXTURE_2D, TEXTURE_MIN_FILTER, NEAREST)
	c.TexParameteri(TEXTURE_2D, TEXTURE_MAG_FILTER, NEAREST)
	c.Uniform1i(c.GetUniformLocation(prog, "u_tex"), 0)
	c.Uniform1fv(c.GetUniformLocation(prog, "u_scale"), []float32{0.75, 0.5, 0.25, 0.125})
	c.Uniform1f(c.GetUniformLocation(prog, "u_n"), 9)
	fullscreenQuad(t, c, prog)
}

// TestProgramBinaryRoundTrip links a program from source, serializes it,
// restores it into a fresh program object on a fresh context, and checks
// the restored program draws bit-identical pixels with identical shader
// statistics — the contract the persistent compile cache relies on.
func TestProgramBinaryRoundTrip(t *testing.T) {
	const W, H = 16, 16
	src := newTestContext(W, H)
	prog := buildProgram(t, src, passVS, binaryFS)
	blob := src.GetProgramBinary(prog)
	if blob == nil {
		t.Fatalf("GetProgramBinary failed: 0x%04x %s", src.GetError(), src.LastErrorDetail())
	}
	setupBinaryDraw(t, src, prog)
	src.DrawArrays(TRIANGLES, 0, 6)
	if e := src.GetError(); e != NO_ERROR {
		t.Fatalf("source draw error 0x%04x: %s", e, src.LastErrorDetail())
	}
	want := readAll(t, src, W, H)
	wantStats := src.LastDraw()

	dst := newTestContext(W, H)
	prog2 := dst.CreateProgram()
	before := dst.Transfers()
	dst.ProgramBinary(prog2, blob)
	if e := dst.GetError(); e != NO_ERROR {
		t.Fatalf("ProgramBinary error 0x%04x: %s\nlog: %s", e, dst.LastErrorDetail(), dst.GetProgramInfoLog(prog2))
	}
	if dst.GetProgramiv(prog2, LINK_STATUS) != 1 {
		t.Fatalf("restored program not linked:\n%s", dst.GetProgramInfoLog(prog2))
	}
	after := dst.Transfers()
	if after.BinaryLoadCount != before.BinaryLoadCount+1 {
		t.Errorf("BinaryLoadCount = %d, want %d", after.BinaryLoadCount, before.BinaryLoadCount+1)
	}
	if after.CompileCount != before.CompileCount || after.LinkCount != before.LinkCount {
		t.Errorf("binary restore must not count as compile/link: %+v -> %+v", before, after)
	}
	if loc := dst.GetUniformLocation(prog2, "u_scale[2]"); loc < 0 {
		t.Error("restored program lost uniform array leaf u_scale[2]")
	}
	setupBinaryDraw(t, dst, prog2)
	dst.DrawArrays(TRIANGLES, 0, 6)
	if e := dst.GetError(); e != NO_ERROR {
		t.Fatalf("restored draw error 0x%04x: %s", e, dst.LastErrorDetail())
	}
	got := readAll(t, dst, W, H)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pixel byte %d differs: restored %d, source %d", i, got[i], want[i])
		}
	}
	gotStats := dst.LastDraw()
	if gotStats.FragmentStats != wantStats.FragmentStats {
		t.Errorf("fragment stats differ:\nrestored %+v\nsource   %+v", gotStats.FragmentStats, wantStats.FragmentStats)
	}
}

// TestProgramBinaryCorruption flips bytes across the blob and requires
// every corruption to fail closed: a GL error and an unlinked program,
// never a panic.
func TestProgramBinaryCorruption(t *testing.T) {
	c := newTestContext(8, 8)
	prog := buildProgram(t, c, passVS, binaryFS)
	blob := c.GetProgramBinary(prog)
	if blob == nil {
		t.Fatalf("GetProgramBinary failed: %s", c.LastErrorDetail())
	}
	// Truncations at every length plus scattered bit flips. A flipped byte
	// deep in payload data (an immediate, a stat counter) can still decode
	// into a structurally valid program — that is fine for this layer; the
	// disk cache guards payload integrity with a checksum. What must never
	// happen is a panic or a linked-but-invalid program with out-of-range
	// references, which Unmarshal's validate pass rejects.
	for cut := 0; cut < len(blob); cut += 13 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("truncation at %d panicked: %v", cut, r)
				}
			}()
			p := c.CreateProgram()
			c.ProgramBinary(p, blob[:cut])
			if c.GetProgramiv(p, LINK_STATUS) == 1 {
				t.Fatalf("truncation at %d produced a linked program", cut)
			}
			c.GetError() // clear
		}()
	}
	for pos := 0; pos < len(blob); pos += 7 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("bit flip at %d panicked: %v", pos, r)
				}
			}()
			mut := append([]byte(nil), blob...)
			mut[pos] ^= 0x5a
			p := c.CreateProgram()
			c.ProgramBinary(p, mut)
			c.GetError() // clear
		}()
	}
}

// TestProgramBinaryVersionMismatch rejects blobs from a different format
// revision with a distinguishable error.
func TestProgramBinaryVersionMismatch(t *testing.T) {
	c := newTestContext(8, 8)
	prog := buildProgram(t, c, passVS, binaryFS)
	blob := c.GetProgramBinary(prog)
	// The per-stage version field sits right after the stage blob's magic,
	// which follows the 4-byte container magic and 4-byte length.
	mut := append([]byte(nil), blob...)
	mut[8+4]++ // vertex stage format version, low byte
	p := c.CreateProgram()
	c.ProgramBinary(p, mut)
	if c.GetError() == NO_ERROR {
		t.Fatal("version mismatch accepted")
	}
	if log := c.GetProgramInfoLog(p); !strings.Contains(log, "version") {
		t.Errorf("info log %q does not mention the version mismatch", log)
	}
}

// TestProgramBinaryInterpreterReject: binary programs have no AST, so a
// context pinned to the tree-walking interpreter must refuse them.
func TestProgramBinaryInterpreterReject(t *testing.T) {
	src := newTestContext(8, 8)
	prog := buildProgram(t, src, passVS, binaryFS)
	blob := src.GetProgramBinary(prog)

	dst := NewContext(Config{Width: 8, Height: 8, SFU: shader.ExactSFU, UseInterpreter: true})
	p := dst.CreateProgram()
	dst.ProgramBinary(p, blob)
	if dst.GetError() == NO_ERROR {
		t.Fatal("interpreter context accepted a program binary")
	}
}

// TestLinkFailsWhenBytecodeCannotLower: a VM context must not silently
// run a stage on the interpreter. A stage the bytecode compiler rejects
// (here a call through a never-defined prototype) fails the link with the
// compiler's error in the info log; an interpreter context links it as
// before and refuses to export a binary.
func TestLinkFailsWhenBytecodeCannotLower(t *testing.T) {
	const fs = `precision mediump float;
float f(float x);
void main() { gl_FragColor = vec4(f(1.0)); }`
	link := func(c *Context) uint32 {
		vs := c.CreateShader(VERTEX_SHADER)
		c.ShaderSource(vs, passVS)
		c.CompileShader(vs)
		f := c.CreateShader(FRAGMENT_SHADER)
		c.ShaderSource(f, fs)
		c.CompileShader(f)
		if c.GetShaderiv(f, COMPILE_STATUS) != 1 {
			t.Fatalf("fragment shader rejected before link:\n%s", c.GetShaderInfoLog(f))
		}
		p := c.CreateProgram()
		c.AttachShader(p, vs)
		c.AttachShader(p, f)
		c.LinkProgram(p)
		return p
	}

	vm := newTestContext(4, 4)
	p := link(vm)
	if vm.GetProgramiv(p, LINK_STATUS) != 0 {
		t.Fatal("VM context linked a program its bytecode compiler cannot lower")
	}
	if log := vm.GetProgramInfoLog(p); !strings.Contains(log, "never defined") {
		t.Errorf("info log %q does not carry the compile error", log)
	}

	in := NewContext(Config{Width: 4, Height: 4, SFU: shader.ExactSFU, UseInterpreter: true})
	p = link(in)
	if in.GetProgramiv(p, LINK_STATUS) != 1 {
		t.Fatalf("interpreter context failed the link:\n%s", in.GetProgramInfoLog(p))
	}
	if blob := in.GetProgramBinary(p); blob != nil || in.GetError() != INVALID_OPERATION {
		t.Error("interpreter context exported a program binary")
	}
}
