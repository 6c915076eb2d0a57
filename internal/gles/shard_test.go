package gles

// How a draw's fragment stage is split and what its workers share: shard
// sizing (shardGrid), the process-wide helper budget of automatic-worker
// contexts, and the per-draw sampler table (DESIGN.md §6h).

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"glescompute/internal/shader"
)

// loopFS does a fixed, position-dependent amount of ALU work per
// fragment, so concurrent draws overlap long enough to contend.
const loopFS = `
precision highp float;
void main() {
	vec2 p = gl_FragCoord.xy / 32.0;
	float s = 0.0;
	for (int i = 0; i < 64; i++) {
		s = fract(s * 1.7 + p.x * 0.31 + p.y * 0.17);
	}
	gl_FragColor = vec4(s, p, 1.0);
}
`

// runawayFS shades most of the framebuffer, then loops forever on its
// top row: the draw fails mid-shard with the runaway-loop RuntimeError.
const runawayFS = `
precision highp float;
void main() {
	float s = 0.0;
	if (gl_FragCoord.y > 30.0) {
		for (int i = 0; i >= 0; i++) { s += 1.0; }
	}
	gl_FragColor = vec4(s);
}
`

func TestShardGrid(t *testing.T) {
	for _, tc := range []struct {
		w, h, edgeCap, workers int
		ts, tiles              int
	}{
		{8, 8, 64, 1, 64, 1},         // one worker keeps the cap
		{8, 8, 64, 2, 2, 16},         // LeNet conv2's 64 fragments
		{32, 32, 64, 2, 8, 16},       // sgemm n=32
		{1024, 1024, 64, 8, 64, 256}, // paper-sized: the cap holds
		{2, 2, 64, 8, 1, 4},          // stops at 1px tiles
		{44, 30, 1024, 4, 8, 24},     // halving from a wide cap
		{44, 30, 3, 4, 3, 150},       // a small cap is never raised
		{16, 16, 64, 4, 4, 16},
		{300, 1, 64, 2, 32, 10}, // one row
		{1, 1, defaultTileSize, 4, 1, 1},
	} {
		ts, tilesX, tiles := shardGrid(tc.w, tc.h, tc.edgeCap, tc.workers)
		if ts != tc.ts || tiles != tc.tiles || tilesX != (tc.w+ts-1)/ts {
			t.Errorf("shardGrid(%d×%d, cap %d, %d workers) = edge %d, %d across, %d tiles; want edge %d, %d tiles",
				tc.w, tc.h, tc.edgeCap, tc.workers, ts, tilesX, tiles, tc.ts, tc.tiles)
		}
	}
}

// drawLoop renders loopFS with a quad over the bottom rows of a w×h
// context (rows = h: the whole framebuffer) and returns its pixels.
func drawLoop(t *testing.T, w, h, rows int, cfg Config) (*Context, []byte) {
	t.Helper()
	cfg.Width, cfg.Height, cfg.SFU = w, h, shader.ExactSFU
	c := NewContext(cfg)
	prog := buildProgram(t, c, passVS, loopFS)
	c.UseProgram(prog)
	top := -1 + 2*float32(rows)/float32(h)
	verts := []float32{-1, -1, 1, -1, 1, top, -1, -1, 1, top, -1, top}
	raw := make([]byte, len(verts)*4)
	for i, v := range verts {
		binary.LittleEndian.PutUint32(raw[i*4:], math.Float32bits(v))
	}
	loc := c.GetAttribLocation(prog, "a_position")
	c.EnableVertexAttribArray(loc)
	c.VertexAttribPointerClient(loc, 2, FLOAT, false, 8, raw)
	c.DrawArrays(TRIANGLES, 0, 6)
	if e := c.GetError(); e != NO_ERROR {
		t.Fatalf("draw error 0x%04x: %s", e, c.LastErrorDetail())
	}
	return c, readAll(t, c, w, h)
}

// TestSmallDrawShardsAcrossWorkers pins that a served-network-sized draw
// is really tiled: an 8×8 (64-fragment) draw at 2 workers runs as
// shardGrid's 8×8 shards on 2 goroutines and still matches the
// sequential path — whether it fills its framebuffer or covers the
// bottom 8 rows of an 8×64 one (a 1-image prefix of an 8-image tensor),
// since tiles cut the draw's footprint, not the framebuffer.
func TestSmallDrawShardsAcrossWorkers(t *testing.T) {
	_, _, tiles := shardGrid(8, 8, defaultTileSize, 2)
	for _, h := range []int{8, 64} {
		seq, want := drawLoop(t, 8, h, 8, Config{Workers: 1})
		if seq.lastShards != 1 || seq.lastWorkers != 1 {
			t.Errorf("8×%d, 1 worker: %d shards on %d goroutines, want the sequential 1 on 1",
				h, seq.lastShards, seq.lastWorkers)
		}
		c, got := drawLoop(t, 8, h, 8, Config{Workers: 2})
		if c.lastShards != tiles || c.lastWorkers != 2 {
			t.Errorf("8×%d, 2 workers: %d shards on %d goroutines, want %d on 2", h, c.lastShards, c.lastWorkers, tiles)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("8×%d, 2 workers: framebuffer diverges from sequential", h)
		}
		if c.Draws() != seq.Draws() || seq.Draws().FragmentsShaded != 64 {
			t.Errorf("8×%d: draw stats seq %+v, par %+v, want 64 fragments each", h, seq.Draws(), c.Draws())
		}
	}
}

// TestHelperBudget draws from several automatic-worker contexts at once
// (run it under -race): together they never hold more than GOMAXPROCS−1
// helpers, the budget is full again after every draw, and a draw whose
// shader fails mid-shard gives its helpers back and still reports the GL
// error.
func TestHelperBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const limit = 3 // GOMAXPROCS−1
	const W, H = 32, 32
	// A private budget, so no other test's draws count against it.
	var budget helperBudget

	_, want := drawLoop(t, W, H, H, Config{Workers: 1})
	open := func(fails bool) *Context {
		fs := loopFS
		if fails {
			fs = runawayFS
		}
		c := NewContext(Config{Width: W, Height: H, SFU: shader.ExactSFU})
		c.helpers = &budget
		c.maxLoopIter = 1000
		prog := buildProgram(t, c, passVS, fs)
		c.UseProgram(prog)
		fullscreenQuad(t, c, prog)
		return c
	}
	// draw issues one draw and checks its outcome; it reports through
	// t.Errorf so worker goroutines may call it.
	draw := func(c *Context, fails bool) {
		c.DrawArrays(TRIANGLES, 0, 6)
		e, msg := c.GetError(), c.LastErrorDetail()
		if fails {
			if e != INVALID_OPERATION || !strings.Contains(msg, "runaway") {
				t.Errorf("failing draw: error 0x%04x %q, want INVALID_OPERATION for the runaway loop", e, msg)
			}
			return
		}
		if e != NO_ERROR {
			t.Errorf("draw error 0x%04x: %s", e, msg)
			return
		}
		got := make([]byte, W*H*4)
		c.ReadPixels(0, 0, W, H, RGBA, UNSIGNED_BYTE, got)
		if !bytes.Equal(got, want) {
			t.Error("framebuffer diverges from sequential")
		}
	}

	// Alone, a draw takes every free helper and gives them all back.
	for _, fails := range []bool{false, true} {
		c := open(fails)
		draw(c, fails)
		if c.lastWorkers != limit+1 {
			t.Errorf("solo draw (fails=%v) shaded on %d goroutines, want %d", fails, c.lastWorkers, limit+1)
		}
		if n := budget.lent.Load(); n != 0 {
			t.Errorf("solo draw (fails=%v) left %d helpers lent", fails, n)
		}
	}

	// Together, four contexts (one of them failing every draw) contend
	// for the same three helpers.
	var stop atomic.Bool
	var peak int64
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for !stop.Load() {
			peak = max(peak, budget.lent.Load())
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		fails := g == 3
		c := open(fails)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				draw(c, fails)
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	<-polled
	if peak > limit {
		t.Errorf("contexts held %d helpers at once, budget is %d", peak, limit)
	}
	if peak == 0 {
		t.Error("no concurrent draw ever held a helper")
	}
	if n := budget.lent.Load(); n != 0 {
		t.Errorf("%d helpers still lent after every draw returned", n)
	}
}

// everyRunawayFS loops forever on every fragment.
const everyRunawayFS = `
precision highp float;
void main() {
	float s = 0.0;
	for (int i = 0; i >= 0; i++) { s += 1.0; }
	gl_FragColor = vec4(s);
}
`

// oneRunawayFS loops forever on fragment (0,0), the first one the draw
// shades, and does a bounded loop everywhere else.
const oneRunawayFS = `
precision highp float;
void main() {
	float s = 0.0;
	bool runaway = gl_FragCoord.x < 1.0 && gl_FragCoord.y < 1.0;
	for (int i = 0; i >= 0; i++) {
		if (!runaway && i >= 200) { break; }
		s += 1.0;
	}
	gl_FragColor = vec4(s / 1000.0);
}
`

// TestFailingDrawStopsEveryWorker pins the draw's shared failure flag:
// once one fragment's shader fails, no worker claims another tile or
// starts another fragment. With every fragment running away, at most one
// fragment per worker reaches the loop limit, the draw reports the same
// error as the sequential path and the helper budget is empty again.
// With one runaway fragment, the other workers stop instead of shading
// the rest of the framebuffer.
func TestFailingDrawStopsEveryWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const W, H = 64, 64
	var budget helperBudget
	draw := func(fs string, workers int) *Context {
		c := NewContext(Config{Width: W, Height: H, Workers: workers, SFU: shader.ExactSFU})
		c.helpers = &budget
		c.maxLoopIter = 1000
		prog := buildProgram(t, c, passVS, fs)
		c.UseProgram(prog)
		fullscreenQuad(t, c, prog)
		c.DrawArrays(TRIANGLES, 0, 6)
		return c
	}

	seq := draw(everyRunawayFS, 1)
	wantErr, wantMsg := seq.GetError(), seq.LastErrorDetail()
	if wantErr != INVALID_OPERATION || !strings.Contains(wantMsg, "runaway") {
		t.Fatalf("sequential draw: error 0x%04x %q, want INVALID_OPERATION for the runaway loop", wantErr, wantMsg)
	}
	for i := 0; i < 5; i++ {
		c := draw(everyRunawayFS, 0)
		if e, msg := c.GetError(), c.LastErrorDetail(); e != wantErr || msg != wantMsg {
			t.Errorf("tiled draw: error 0x%04x %q, want 0x%04x %q", e, msg, wantErr, wantMsg)
		}
		if c.lastWorkers < 2 {
			t.Fatalf("draw shaded on %d goroutines, want several", c.lastWorkers)
		}
		if c.lastFailed < 1 || c.lastFailed > c.lastWorkers {
			t.Errorf("%d fragments reached the loop limit on %d workers, want 1..%d", c.lastFailed, c.lastWorkers, c.lastWorkers)
		}
		if n := budget.lent.Load(); n != 0 {
			t.Errorf("%d helpers still lent after a failed draw", n)
		}
	}

	c := draw(oneRunawayFS, 0)
	if e := c.GetError(); e != INVALID_OPERATION {
		t.Fatalf("one-runaway draw: error 0x%04x, want INVALID_OPERATION", e)
	}
	if n := c.LastDraw().FragmentsShaded; n > W*H/2 {
		t.Errorf("workers shaded %d of %d fragments after the draw failed, want them to stop", n, W*H)
	}
	if n := budget.lent.Load(); n != 0 {
		t.Errorf("%d helpers still lent after a failed draw", n)
	}
}

// TestSamplerTableMatchesContext pins the table a draw resolves once to
// Context.Sample2D, the per-fetch path direct callers keep, on every
// resolution outcome: unbound, incomplete, NPOT+REPEAT, minified and
// magnified.
func TestSamplerTableMatchesContext(t *testing.T) {
	c := NewContext(Config{Width: 4, Height: 4, SFU: shader.ExactSFU}) // 4×4 viewport
	image := func(w, h int) {
		px := make([]byte, w*h*4)
		for i := range px {
			px[i] = byte(i*29 + 7)
		}
		c.TexImage2D(TEXTURE_2D, 0, RGBA, w, h, 0, RGBA, UNSIGNED_BYTE, px)
	}
	filters := func(min, mag uint32) {
		c.TexParameteri(TEXTURE_2D, TEXTURE_MIN_FILTER, min)
		c.TexParameteri(TEXTURE_2D, TEXTURE_MAG_FILTER, mag)
	}
	cases := []struct {
		name     string
		setup    func() // nil leaves the unit unbound
		live     bool
		minified bool
	}{
		{"unbound", nil, false, false},
		{"missing level", func() {}, false, false},
		// The default NEAREST_MIPMAP_LINEAR filter needs a chain.
		{"incomplete mip chain", func() { image(4, 4) }, false, false},
		{"NPOT with REPEAT", func() { image(3, 3); filters(LINEAR, LINEAR) }, false, false},
		{"minified", func() { image(8, 8); filters(LINEAR, NEAREST) }, true, true},
		{"magnified", func() { image(2, 2); filters(LINEAR, NEAREST) }, true, false},
	}
	for unit, tc := range cases {
		if tc.setup != nil {
			c.ActiveTexture(TEXTURE0 + uint32(unit))
			c.BindTexture(TEXTURE_2D, c.GenTextures(1)[0])
			tc.setup()
		}
	}
	if e := c.GetError(); e != NO_ERROR {
		t.Fatalf("setup error 0x%04x: %s", e, c.LastErrorDetail())
	}

	st := c.bindSamplers()
	black := [4]float32{0, 0, 0, 1}
	coords := [][2]float32{{0, 0}, {0.3, 0.7}, {0.5, 0.5}, {0.99, 0.01}, {-0.2, 1.4}}
	for unit, tc := range cases {
		b := st.tex2D[unit]
		if (b.tex != nil) != tc.live || b.minified != tc.minified {
			t.Errorf("%s: resolved live=%v minified=%v, want %v %v", tc.name, b.tex != nil, b.minified, tc.live, tc.minified)
			continue
		}
		for _, p := range coords {
			got, want := st.Sample2D(unit, p[0], p[1]), c.Sample2D(unit, p[0], p[1])
			if got != want {
				t.Errorf("%s at %v: table %v, Context.Sample2D %v", tc.name, p, got, want)
			}
			if !tc.live && got != black {
				t.Errorf("%s at %v: %v, want opaque black", tc.name, p, got)
			}
			if tc.live {
				lv := &b.tex.levels[0]
				filtered := lv.sampleNearest(p[0], p[1], REPEAT, REPEAT)
				if tc.minified {
					filtered = lv.sampleLinear(p[0], p[1], REPEAT, REPEAT)
				}
				if got != filtered {
					t.Errorf("%s at %v: %v, want %v from the %s filter", tc.name, p, got, filtered,
						filterName(tc.minified))
				}
			}
			if got, want := st.SampleCube(unit, p[0], p[1], 1), c.SampleCube(unit, p[0], p[1], 1); got != want || got != black {
				t.Errorf("%s cube at %v: table %v, Context.SampleCube %v, want opaque black", tc.name, p, got, want)
			}
		}
	}
	for _, unit := range []int{-1, len(c.texUnits)} {
		if got := st.Sample2D(unit, 0.5, 0.5); got != black || c.Sample2D(unit, 0.5, 0.5) != black {
			t.Errorf("out-of-range unit %d: table %v, want opaque black from both", unit, got)
		}
	}
}

func filterName(minified bool) string {
	if minified {
		return "min (LINEAR)"
	}
	return "mag (NEAREST)"
}
