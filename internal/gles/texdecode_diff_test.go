package gles

import (
	"math"
	"testing"

	"glescompute/internal/codec"
	"glescompute/internal/glsl"
	"glescompute/internal/shader"
)

// texDecodeFS fetches one texel and decodes it with both vec4 decoder
// shapes the codecs emit: Int8x4's floor(t * 255.0 - vec4(127.5)) and
// the byte reconstruction floor(t * 255.0 + vec4(0.5)) of Uint32. The
// third decoder reads its texel again after the decode, so the texel the
// fused step leaves in its register is observable too. The fourth takes
// the scaled texel as its argument and reads it again, so its decode
// shape must not fuse: the fused step would leave the product unwritten.
var texDecodeFS = "precision highp float;\n" +
	"uniform sampler2D u_tex;\n" +
	"uniform vec2 u_st;\n" +
	"vec4 g_lanes;\n" +
	"float g_word;\n" +
	"vec4 g_keep;\n" +
	"vec4 g_scaled;\n" +
	codec.GLSLDecoder(codec.Int8x4, "dec_lanes") +
	codec.GLSLDecoder(codec.Uint32, "dec_word") + `
vec4 dec_keep(vec4 t) {
	vec4 b = floor(t * 255.0 + vec4(0.5));
	return b + t;
}
vec4 dec_scaled(vec4 p) { return floor(p - vec4(127.5)) + p; }
void main() {
	g_lanes = dec_lanes(texture2D(u_tex, u_st));
	g_word = dec_word(texture2D(u_tex, u_st));
	g_keep = dec_keep(texture2D(u_tex, u_st));
	g_scaled = dec_scaled(texture2D(u_tex, u_st) * 255.0);
	gl_FragColor = g_lanes / 128.0 + vec4(g_word / 4294967296.0) + g_keep / 512.0 + g_scaled / 1024.0;
}
`

// TestTexDecodeMatchesInterpreter runs the fused fetch-and-decode step on
// the VM and the unfused decode on the interpreter over the same resolved
// samplers, under every sampler state a unit can be in, and requires
// bit-identical outputs, globals and Stats. Nearest-filtered units serve
// the step from the texel's bytes; the others send it to Sample2D.
func TestTexDecodeMatchesInterpreter(t *testing.T) {
	prog, errs := glsl.CompileSource(texDecodeFS, glsl.StageFragment, glsl.CheckOptions{})
	if err := errs.Err(); err != nil {
		t.Fatal(err)
	}
	code, err := shader.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if fused, total := code.Fetches(); fused != 3 || total != 4 {
		t.Fatalf("%d of %d fetches fused, want all but dec_scaled's", fused, total)
	}
	var uTex, uSt *glsl.VarDecl
	for _, d := range prog.Uniforms {
		switch d.Name {
		case "u_tex":
			uTex = d
		case "u_st":
			uSt = d
		}
	}

	type state struct {
		name                   string
		size                   int
		min, mag, wrapS, wrapT uint32
		bytes                  bool // Texel2D serves the unit
	}
	states := []state{
		{"nearest clamp", 4, NEAREST, NEAREST, CLAMP_TO_EDGE, CLAMP_TO_EDGE, true},
		{"nearest repeat", 4, NEAREST, NEAREST, REPEAT, REPEAT, true},
		{"nearest mirrored", 4, NEAREST, NEAREST, MIRRORED_REPEAT, MIRRORED_REPEAT, true},
		{"nearest repeat×mirrored", 4, NEAREST, NEAREST, REPEAT, MIRRORED_REPEAT, true},
		{"minified nearest min", 8, NEAREST, LINEAR, REPEAT, CLAMP_TO_EDGE, true},
		{"minified linear min", 8, LINEAR, NEAREST, REPEAT, REPEAT, false},
		{"magnified nearest mag", 2, LINEAR, NEAREST, MIRRORED_REPEAT, REPEAT, true},
		{"magnified linear mag", 2, NEAREST, LINEAR, CLAMP_TO_EDGE, CLAMP_TO_EDGE, false},
		{"linear mirrored", 4, LINEAR, LINEAR, MIRRORED_REPEAT, MIRRORED_REPEAT, false},
		{"incomplete mip chain", 4, NEAREST_MIPMAP_LINEAR, NEAREST, REPEAT, REPEAT, false},
		{"unbound", 0, 0, 0, 0, 0, false},
	}
	coords := [][2]float32{
		{0, 0}, {0.3, 0.7}, {0.5, 0.5}, {0.125, 0.875}, {0.99, 0.01}, {1, 1},
		{-0.2, 1.4}, {-1.3, -0.6}, {2.6, 3.1}, {-7.9, 5.55},
	}
	for _, st := range states {
		c := NewContext(Config{Width: 4, Height: 4, SFU: shader.DefaultSFU}) // 4×4 viewport
		if st.size > 0 {
			c.BindTexture(TEXTURE_2D, c.GenTextures(1)[0])
			px := make([]byte, st.size*st.size*4)
			for i := range px {
				px[i] = byte(i*53 + 11)
			}
			c.TexImage2D(TEXTURE_2D, 0, RGBA, st.size, st.size, 0, RGBA, UNSIGNED_BYTE, px)
			c.TexParameteri(TEXTURE_2D, TEXTURE_MIN_FILTER, st.min)
			c.TexParameteri(TEXTURE_2D, TEXTURE_MAG_FILTER, st.mag)
			c.TexParameteri(TEXTURE_2D, TEXTURE_WRAP_S, st.wrapS)
			c.TexParameteri(TEXTURE_2D, TEXTURE_WRAP_T, st.wrapT)
		}
		if e := c.GetError(); e != NO_ERROR {
			t.Fatalf("%s: setup error 0x%04x: %s", st.name, e, c.LastErrorDetail())
		}
		samplers := c.bindSamplers()
		units := []int{0}
		if st.name == "nearest clamp" {
			units = append(units, -1, len(c.texUnits)) // out of range
		}
		ex := shader.NewExec(prog, samplers, shader.DefaultSFU)
		vm := shader.NewVM(code, samplers, shader.DefaultSFU)
		for _, e := range []shader.Executor{ex, vm} {
			if err := e.InitGlobals(); err != nil {
				t.Fatal(err)
			}
		}
		for _, unit := range units {
			for _, p := range coords {
				if _, ok := samplers.Texel2D(unit, p[0], p[1]); ok != (st.bytes && unit == 0) {
					t.Fatalf("%s unit %d: Texel2D ok=%v", st.name, unit, ok)
				}
				for _, e := range []shader.Executor{ex, vm} {
					e.SetGlobal(uTex, shader.Value{T: uTex.DeclType, F: [16]float32{float32(unit)}})
					e.SetGlobal(uSt, shader.Vec2Val(p[0], p[1]))
					e.ResetFragOutputs()
				}
				dIn, errIn := ex.Run()
				dVM, errVM := vm.Run()
				if errIn != nil || errVM != nil || dIn != dVM {
					t.Fatalf("%s unit %d at %v: interpreter (%v, %v), VM (%v, %v)", st.name, unit, p, dIn, errIn, dVM, errVM)
				}
				if a, b := ex.FragOutput(), vm.FragOutput(); a != b {
					t.Errorf("%s unit %d at %v: gl_FragColor %v, VM %v", st.name, unit, p, a, b)
				}
				for _, g := range prog.Globals {
					n := g.DeclType.FlatSize()
					a, b := make([]float32, n), make([]float32, n)
					ex.ReadGlobalFlat(g, a)
					vm.ReadGlobalFlat(g, b)
					for i := range a {
						if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
							t.Errorf("%s unit %d at %v: %s = %v, VM %v", st.name, unit, p, g.Name, a, b)
							break
						}
					}
				}
			}
		}
		if *ex.StatsRef() != *vm.StatsRef() {
			t.Errorf("%s: stats diverge:\ninterp: %+v\nvm:     %+v", st.name, *ex.StatsRef(), *vm.StatsRef())
		}
	}
}
