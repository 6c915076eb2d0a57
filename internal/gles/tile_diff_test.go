package gles

// Corpus-wide tile-determinism differential: render every scene once on
// the sequential fragment path (Workers: 1 — the reference) and again at
// worker counts 2, 4 and 8 with a deliberately tiny tile size (so a small
// framebuffer still shards into many ragged tiles), and require
// byte-identical framebuffers and identical DrawStats. The scenes cover
// every shader in internal/glsl/testdata — samplers, struct uniform
// arrays, mat4 skinning, point sprites with gl_PointCoord — plus
// blending/depth state, so the merge covers every per-pixel sequencing
// path the rasterizer has. See DESIGN.md §6h for why tiling is
// deterministic by construction; this test is the enforcement.

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"glescompute/internal/shader"
)

// uvVS forwards a_texcoord as the v_uv varying the corpus fragment
// shaders consume (the committed fullscreen.vert, inlined name-for-name).
const uvVS = `
attribute vec2 a_position;
attribute vec2 a_texcoord;
varying vec2 v_uv;
void main() {
	v_uv = a_texcoord;
	gl_Position = vec4(a_position, 0.0, 1.0);
}
`

// surfVS synthesizes the v_normal/v_world_pos interface of phong.frag and
// lights_struct.frag from the fullscreen quad's coordinates.
const surfVS = `
attribute vec2 a_position;
attribute vec2 a_texcoord;
varying vec3 v_normal;
varying vec3 v_world_pos;
void main() {
	v_normal = normalize(vec3(a_texcoord - 0.5, 1.0));
	v_world_pos = vec3(a_position * 2.0, a_texcoord.x);
	gl_Position = vec4(a_position, 0.0, 1.0);
}
`

// pointFS pairs with point_sprite.vert: consumes both its v_uv varying
// and gl_PointCoord, so point tiling must reproduce per-fragment point
// coordinates exactly at every tile boundary.
const pointFS = `
precision mediump float;
varying vec2 v_uv;
void main() {
	gl_FragColor = vec4(v_uv, gl_PointCoord);
}
`

func corpusSource(t *testing.T, name string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "glsl", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

func packFloats(vals []float32) []byte {
	raw := make([]byte, len(vals)*4)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(v))
	}
	return raw
}

// checkerTexture uploads a deterministic RGBA8 pattern to texture unit
// `unit` and points sampler uniform `sampler` at it.
func checkerTexture(t *testing.T, c *Context, prog uint32, sampler string, unit int, w, h int) {
	t.Helper()
	tex := c.GenTextures(1)[0]
	c.ActiveTexture(TEXTURE0 + uint32(unit))
	c.BindTexture(TEXTURE_2D, tex)
	px := make([]byte, w*h*4)
	for i := range px {
		px[i] = byte((i*37 + i/13) % 251)
	}
	c.TexImage2D(TEXTURE_2D, 0, RGBA, w, h, 0, RGBA, UNSIGNED_BYTE, px)
	c.TexParameteri(TEXTURE_2D, TEXTURE_MIN_FILTER, NEAREST)
	c.TexParameteri(TEXTURE_2D, TEXTURE_MAG_FILTER, NEAREST)
	c.TexParameteri(TEXTURE_2D, TEXTURE_WRAP_S, CLAMP_TO_EDGE)
	c.TexParameteri(TEXTURE_2D, TEXTURE_WRAP_T, CLAMP_TO_EDGE)
	c.Uniform1i(c.GetUniformLocation(prog, sampler), int32(unit))
	c.ActiveTexture(TEXTURE0)
}

// tileScene is one differential scene: a program, its state setup, and
// the draw it issues.
type tileScene struct {
	name  string
	vs    string
	fs    func(t *testing.T) string
	setup func(t *testing.T, c *Context, prog uint32)
	draw  func(t *testing.T, c *Context, prog uint32) // nil = fullscreen quad, 6 verts
}

func tileScenes() []tileScene {
	frag := func(name string) func(t *testing.T) string {
		return func(t *testing.T) string { return corpusSource(t, name) }
	}
	lit := func(t *testing.T, c *Context, prog uint32) {
		for i, l := range []struct {
			pos, color [3]float32
			intensity  float32
		}{
			{[3]float32{1, 2, 1}, [3]float32{1, 0.4, 0.2}, 2.0},
			{[3]float32{-2, 1, 0.5}, [3]float32{0.2, 1, 0.4}, 1.5},
			{[3]float32{0, -1, 2}, [3]float32{0.3, 0.3, 1}, 3.0},
		} {
			base := "u_lights[" + string(rune('0'+i)) + "]"
			c.Uniform3f(c.GetUniformLocation(prog, base+".pos"), l.pos[0], l.pos[1], l.pos[2])
			c.Uniform3f(c.GetUniformLocation(prog, base+".color"), l.color[0], l.color[1], l.color[2])
			c.Uniform1f(c.GetUniformLocation(prog, base+".intensity"), l.intensity)
		}
		c.Uniform3f(c.GetUniformLocation(prog, "u_base"), 0.05, 0.02, 0.08)
	}
	return []tileScene{
		{
			name: "mandelbrot.frag", vs: uvVS, fs: frag("mandelbrot.frag"),
			setup: func(t *testing.T, c *Context, prog uint32) {
				c.Uniform2f(c.GetUniformLocation(prog, "u_center"), -0.5, 0.0)
				c.Uniform1f(c.GetUniformLocation(prog, "u_scale"), 2.5)
			},
		},
		{
			name: "boxblur.frag", vs: uvVS, fs: frag("boxblur.frag"),
			setup: func(t *testing.T, c *Context, prog uint32) {
				checkerTexture(t, c, prog, "u_tex", 0, 16, 16)
				c.Uniform2f(c.GetUniformLocation(prog, "u_texel"), 1.0/16, 1.0/16)
			},
		},
		{
			name: "codec_float.frag", vs: uvVS, fs: frag("codec_float.frag"),
			setup: func(t *testing.T, c *Context, prog uint32) {
				checkerTexture(t, c, prog, "u_data", 1, 8, 8)
			},
		},
		{
			name: "reduce_sum.frag", vs: uvVS, fs: frag("reduce_sum.frag"),
			setup: func(t *testing.T, c *Context, prog uint32) {
				checkerTexture(t, c, prog, "u_in", 0, 16, 8)
				c.Uniform2f(c.GetUniformLocation(prog, "u_in_dims"), 16, 8)
				c.Uniform1f(c.GetUniformLocation(prog, "u_stride"), 4)
			},
		},
		{
			name: "phong.frag", vs: surfVS, fs: frag("phong.frag"),
			setup: func(t *testing.T, c *Context, prog uint32) {
				c.Uniform3f(c.GetUniformLocation(prog, "u_light_pos"), 1.5, 2.0, 1.0)
				c.Uniform3f(c.GetUniformLocation(prog, "u_view_pos"), 0, 0, 3)
				c.Uniform3f(c.GetUniformLocation(prog, "u_diffuse"), 0.8, 0.3, 0.2)
				c.Uniform3f(c.GetUniformLocation(prog, "u_specular"), 1, 1, 1)
				c.Uniform1f(c.GetUniformLocation(prog, "u_shininess"), 16)
			},
		},
		{
			name: "lights_struct.frag", vs: surfVS, fs: frag("lights_struct.frag"),
			setup: lit,
		},
		{
			// skinning.vert drives phong.frag: a skewed triangle pair whose
			// edges cross many tile boundaries, exercising partial coverage
			// in interior tiles.
			name: "skinning.vert",
			vs:   "", // loaded in fs thunk pairing below
			fs:   frag("phong.frag"),
			setup: func(t *testing.T, c *Context, prog uint32) {
				ident := []float32{1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1}
				tilt := []float32{1, 0.2, 0, 0, -0.1, 1, 0, 0, 0, 0, 1, 0, 0.1, -0.05, 0, 1}
				for i, m := range [][]float32{ident, tilt, ident, tilt} {
					base := "u_bones[" + string(rune('0'+i)) + "]"
					c.UniformMatrix4fv(c.GetUniformLocation(prog, base), m)
				}
				c.UniformMatrix4fv(c.GetUniformLocation(prog, "u_viewproj"), ident)
				c.Uniform3f(c.GetUniformLocation(prog, "u_light_pos"), 1, 1, 2)
				c.Uniform3f(c.GetUniformLocation(prog, "u_view_pos"), 0, 0, 3)
				c.Uniform3f(c.GetUniformLocation(prog, "u_diffuse"), 0.5, 0.7, 0.9)
				c.Uniform3f(c.GetUniformLocation(prog, "u_specular"), 1, 0.8, 0.6)
				c.Uniform1f(c.GetUniformLocation(prog, "u_shininess"), 8)
			},
			draw: func(t *testing.T, c *Context, prog uint32) {
				// x,y,z, nx,ny,nz, bone0,bone1, w0,w1 per vertex.
				verts := []float32{
					-0.9, -0.8, 0, 0, 0, 1, 0, 1, 0.7, 0.3,
					0.8, -0.6, 0, 0, 1, 0, 1, 2, 0.5, 0.5,
					0.1, 0.9, 0, 1, 0, 0, 2, 3, 0.2, 0.8,
					-0.7, 0.7, 0, 0, 0, 1, 3, 0, 0.9, 0.1,
					0.9, 0.5, 0, 0, 1, 0, 0, 2, 0.4, 0.6,
					0.2, -0.9, 0, 1, 0, 1, 1, 3, 0.6, 0.4,
				}
				raw := packFloats(verts)
				const stride = 40
				bind := func(name string, size, off int) {
					loc := c.GetAttribLocation(prog, name)
					if loc < 0 {
						t.Fatalf("%s not found", name)
					}
					c.EnableVertexAttribArray(loc)
					c.VertexAttribPointerClient(loc, size, FLOAT, false, stride, raw[off:])
				}
				bind("a_position", 3, 0)
				bind("a_normal", 3, 12)
				bind("a_bones", 2, 24)
				bind("a_weights", 2, 32)
				c.DrawArrays(TRIANGLES, 0, 6)
			},
		},
		{
			name: "point_sprite.vert",
			vs:   "",
			fs:   func(t *testing.T) string { return pointFS },
			setup: func(t *testing.T, c *Context, prog uint32) {
				c.Uniform1f(c.GetUniformLocation(prog, "u_time"), 1.3)
				ident := []float32{1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1}
				c.UniformMatrix4fv(c.GetUniformLocation(prog, "u_mvp"), ident)
			},
			draw: func(t *testing.T, c *Context, prog uint32) {
				// x,y,z, phase per point: a grid of sprites whose rasterized
				// squares straddle tile boundaries.
				var verts []float32
				for i := 0; i < 5; i++ {
					for j := 0; j < 4; j++ {
						verts = append(verts,
							-0.8+0.4*float32(i), -0.75+0.5*float32(j), 0,
							float32(i*4+j)/20)
					}
				}
				raw := packFloats(verts)
				bind := func(name string, size, off int) {
					loc := c.GetAttribLocation(prog, name)
					if loc < 0 {
						t.Fatalf("%s not found", name)
					}
					c.EnableVertexAttribArray(loc)
					c.VertexAttribPointerClient(loc, size, FLOAT, false, 16, raw[off:])
				}
				bind("a_position", 3, 0)
				bind("a_phase", 1, 12)
				c.DrawArrays(POINTS, 0, 20)
			},
		},
		{
			// fullscreen.vert itself (the committed file, not the inlined
			// copy) with blending and depth over a cleared background: the
			// per-pixel blend sequencing must survive tiling.
			name: "fullscreen.vert",
			vs:   "",
			fs: func(t *testing.T) string {
				return `
precision mediump float;
varying vec2 v_uv;
void main() { gl_FragColor = vec4(v_uv.x, 0.3, v_uv.y, 0.5); }`
			},
			setup: func(t *testing.T, c *Context, prog uint32) {
				c.Enable(BLEND)
				c.BlendFunc(SRC_ALPHA, ONE_MINUS_SRC_ALPHA)
				c.Enable(DEPTH_TEST)
				c.ClearColor(0.15, 0.25, 0.35, 1)
				c.Clear(COLOR_BUFFER_BIT | DEPTH_BUFFER_BIT)
			},
		},
	}
}

// sceneVS resolves a scene's vertex shader, loading the corpus file when
// the scene is named after one.
func sceneVS(t *testing.T, sc tileScene) string {
	if sc.vs != "" {
		return sc.vs
	}
	return corpusSource(t, sc.name)
}

// drawTiled renders one scene at the given worker count and tile size.
func drawTiled(t *testing.T, sc tileScene, workers, tileSize int) ([]byte, DrawStats) {
	t.Helper()
	const W, H = 44, 30 // not a multiple of the tile size: ragged edge tiles
	c := NewContext(Config{
		Width: W, Height: H,
		SFU:     shader.DefaultSFU,
		Workers: workers,
	})
	if tileSize > 0 {
		c.tileSize = tileSize
	}
	prog := buildProgram(t, c, sceneVS(t, sc), sc.fs(t))
	c.UseProgram(prog)
	if sc.setup != nil {
		sc.setup(t, c, prog)
	}
	if sc.draw != nil {
		sc.draw(t, c, prog)
	} else {
		fullscreenQuad(t, c, prog)
		c.DrawArrays(TRIANGLES, 0, 6)
	}
	if e := c.GetError(); e != NO_ERROR {
		t.Fatalf("draw error 0x%04x: %s", e, c.LastErrorDetail())
	}
	return readAll(t, c, W, H), c.Draws()
}

// TestTileDifferentialCorpus is the tentpole determinism gate: for every
// corpus scene, tiled parallel output at 2, 4 and 8 workers must be
// bit-identical to the sequential path — framebuffer bytes and DrawStats
// both (the vc4 timing model consumes the stats, so nondeterministic
// counters would make modeled time flap run to run).
func TestTileDifferentialCorpus(t *testing.T) {
	for _, sc := range tileScenes() {
		t.Run(sc.name, func(t *testing.T) {
			refPx, refStats := drawTiled(t, sc, 1, 8)
			for _, workers := range []int{2, 4, 8} {
				px, stats := drawTiled(t, sc, workers, 8)
				if !bytes.Equal(px, refPx) {
					t.Errorf("workers=%d: framebuffer diverges from sequential", workers)
				}
				if stats != refStats {
					t.Errorf("workers=%d: draw stats diverge:\nseq: %+v\npar: %+v", workers, refStats, stats)
				}
			}
		})
	}
}

// TestTileDifferentialTileSizes re-runs one heavy scene across pathological
// tile sizes (1-pixel tiles, tiles wider than the framebuffer) at a fixed
// worker count: the tile grid geometry must never leak into the output.
func TestTileDifferentialTileSizes(t *testing.T) {
	sc := tileScenes()[0] // mandelbrot: divergent control flow per pixel
	refPx, refStats := drawTiled(t, sc, 1, 8)
	for _, ts := range []int{1, 3, 7, 16, 64, 1024} {
		px, stats := drawTiled(t, sc, 4, ts)
		if !bytes.Equal(px, refPx) {
			t.Errorf("tile size %d: framebuffer diverges from sequential", ts)
		}
		if stats != refStats {
			t.Errorf("tile size %d: draw stats diverge", ts)
		}
	}
}
