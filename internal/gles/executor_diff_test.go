package gles

// Pipeline-level executor differential: render the same scenes once on
// the bytecode VM (default) and once on the reference AST interpreter,
// and require byte-identical framebuffers and identical DrawStats —
// including the per-stage shader.Stats the vc4 timing model consumes.

import (
	"bytes"
	"testing"

	"glescompute/internal/shader"
)

// drawScene renders one scene and returns the framebuffer and draw stats.
func drawScene(t *testing.T, useInterp bool, fsSrc string, setup func(c *Context, prog uint32)) ([]byte, DrawStats) {
	t.Helper()
	const W, H = 12, 9
	c := NewContext(Config{Width: W, Height: H, SFU: shader.DefaultSFU, Workers: 3, UseInterpreter: useInterp})
	prog := buildProgram(t, c, passVS, fsSrc)
	c.UseProgram(prog)
	fullscreenQuad(t, c, prog)
	if setup != nil {
		setup(c, prog)
	}
	c.DrawArrays(TRIANGLES, 0, 6)
	if e := c.GetError(); e != NO_ERROR {
		t.Fatalf("draw error 0x%04x: %s", e, c.LastErrorDetail())
	}
	return readAll(t, c, W, H), c.Draws()
}

func diffScene(t *testing.T, name, fsSrc string, setup func(c *Context, prog uint32)) {
	t.Helper()
	pxVM, statsVM := drawScene(t, false, fsSrc, setup)
	pxIn, statsIn := drawScene(t, true, fsSrc, setup)
	if !bytes.Equal(pxVM, pxIn) {
		t.Errorf("%s: framebuffer bytes diverge between VM and interpreter", name)
	}
	if statsVM != statsIn {
		t.Errorf("%s: draw stats diverge:\nvm:     %+v\ninterp: %+v", name, statsVM, statsIn)
	}
}

func TestExecutorDifferentialScenes(t *testing.T) {
	t.Run("gradient-math", func(t *testing.T) {
		diffScene(t, "gradient-math", `
precision highp float;
varying vec2 v_texcoord;
uniform float u_k;
void main() {
	float v = sin(v_texcoord.x * 6.28) * cos(v_texcoord.y * 3.14) + pow(v_texcoord.x + 0.1, u_k);
	gl_FragColor = vec4(fract(v), clamp(v, 0.0, 1.0), v_texcoord.y, 1.0);
}`, func(c *Context, prog uint32) {
			c.Uniform1f(c.GetUniformLocation(prog, "u_k"), 1.75)
		})
	})
	t.Run("discard-checker", func(t *testing.T) {
		diffScene(t, "discard-checker", `
precision mediump float;
varying vec2 v_texcoord;
void main() {
	if (mod(floor(gl_FragCoord.x) + floor(gl_FragCoord.y), 2.0) == 0.0) { discard; }
	gl_FragColor = vec4(v_texcoord, 0.5, 1.0);
}`, nil)
	})
	t.Run("blend-depth", func(t *testing.T) {
		diffScene(t, "blend-depth", `
precision mediump float;
varying vec2 v_texcoord;
void main() { gl_FragColor = vec4(v_texcoord.x, 0.25, v_texcoord.y, 0.5); }`,
			func(c *Context, prog uint32) {
				c.Enable(BLEND)
				c.BlendFunc(SRC_ALPHA, ONE_MINUS_SRC_ALPHA)
				c.Enable(DEPTH_TEST)
				c.ClearColor(0.2, 0.3, 0.4, 1)
				c.Clear(COLOR_BUFFER_BIT | DEPTH_BUFFER_BIT)
			})
	})
	t.Run("loops-functions", func(t *testing.T) {
		diffScene(t, "loops-functions", `
precision highp float;
varying vec2 v_texcoord;
float acc(float x) {
	float s = 0.0;
	for (int i = 0; i < 8; i++) {
		s += mod(x * float(i), 3.0);
		if (s > 5.0) { break; }
	}
	return s;
}
void main() { gl_FragColor = vec4(acc(v_texcoord.x), acc(v_texcoord.y) * 0.1, 0.0, 1.0); }`, nil)
	})
}

// TestExecutorDifferentialStatsAcrossDraws draws control-flow-heavy
// shaders twice on one context per executor and requires every draw's
// stats, the accumulated stats and the framebuffer to agree. The VM counts
// how often each straight-line region ran and folds the counts into its
// Stats only when the draw reads them, so a count left unfolded, folded
// twice or attributed to the wrong region shows here. The shaders break,
// continue, return early, discard in a callee and read a global whose
// initializer runs once per executor; the last one runs away on part of
// the framebuffer in its second draw, so that draw fails and reports what
// it shaded before it stopped (one worker, so where it stops is fixed).
func TestExecutorDifferentialStatsAcrossDraws(t *testing.T) {
	const control = `
precision highp float;
varying vec2 v_texcoord;
uniform float u_k;
float g = u_k * 0.5 + 0.125;
float walk(float x) {
	float s = 0.0;
	for (float i = 0.0; i < 16.0; i += 1.0) {
		if (mod(i, 3.0) == 1.0) { continue; }
		s += x * i;
		if (s > 20.0 * g) { break; }
	}
	return s;
}
float early(float x) {
	if (x > 0.75) { return x * 2.0; }
	float w = 0.0;
	while (w < x) { w += 0.125; }
	do { w -= 0.25; } while (w > 1.0);
	return w;
}
void kill(float x) {
	if (x < g * 0.25) { discard; }
}
void main() {
	kill(v_texcoord.x * v_texcoord.y);
	gl_FragColor = vec4(walk(v_texcoord.x) / 64.0, early(v_texcoord.y), g, 1.0);
}`
	const runaway = `
precision highp float;
varying vec2 v_texcoord;
uniform float u_k;
void main() {
	float s = 0.0;
	float step = v_texcoord.x > u_k ? 0.0 : 1.0;
	for (float i = 0.0; i < 8.0; i += step) { s += i * v_texcoord.y; }
	gl_FragColor = vec4(s / 32.0, v_texcoord, 1.0);
}`
	for _, tc := range []struct {
		name    string
		src     string
		workers int
		ks      [2]float32
		fails   bool // the second draw runs away
	}{
		{"control-flow", control, 3, [2]float32{0.5, 1.5}, false},
		{"control-flow-one-worker", control, 1, [2]float32{1.5, 0.25}, false},
		{"runaway", runaway, 1, [2]float32{2, 0.6}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const W, H = 12, 9
			var ctxs [2]*Context
			for k, interp := range []bool{false, true} {
				c := NewContext(Config{Width: W, Height: H, SFU: shader.DefaultSFU, Workers: tc.workers, UseInterpreter: interp})
				c.maxLoopIter = 64
				prog := buildProgram(t, c, passVS, tc.src)
				c.UseProgram(prog)
				fullscreenQuad(t, c, prog)
				ctxs[k] = c
			}
			for d, kv := range tc.ks {
				var px [2][]byte
				for k, c := range ctxs {
					c.Uniform1f(c.GetUniformLocation(c.current, "u_k"), kv)
					c.DrawArrays(TRIANGLES, 0, 6)
					failed := c.GetError() != NO_ERROR
					if failed != (tc.fails && d == 1) {
						t.Fatalf("draw %d on executor %d: failed = %v: %s", d, k, failed, c.LastErrorDetail())
					}
					px[k] = readAll(t, c, W, H)
				}
				if !bytes.Equal(px[0], px[1]) {
					t.Errorf("draw %d: framebuffer bytes diverge between VM and interpreter", d)
				}
				if vm, in := ctxs[0].LastDraw(), ctxs[1].LastDraw(); vm != in {
					t.Errorf("draw %d: draw stats diverge:\nvm:     %+v\ninterp: %+v", d, vm, in)
				}
				if vm, in := ctxs[0].Draws(), ctxs[1].Draws(); vm != in {
					t.Errorf("after draw %d: accumulated stats diverge:\nvm:     %+v\ninterp: %+v", d, vm, in)
				}
			}
			// The scenes must reach what they are for: a discard in the
			// callee, and a runaway that stops the draw part way.
			all, last := ctxs[0].Draws(), ctxs[0].LastDraw()
			if !tc.fails && all.FragmentsDiscarded == 0 {
				t.Errorf("no fragment discarded: %+v", all)
			}
			if tc.fails && (last.FragmentsShaded == 0 || last.FragmentsShaded >= W*H) {
				t.Errorf("runaway draw shaded %d of %d fragments, want it stopped part way", last.FragmentsShaded, W*H)
			}
		})
	}
}
