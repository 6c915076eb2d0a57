package gles

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"

	"glescompute/internal/glsl"
	"glescompute/internal/raster"
	"glescompute/internal/shader"
)

// DrawArrays mirrors glDrawArrays. Supported modes: TRIANGLES,
// TRIANGLE_STRIP, TRIANGLE_FAN, POINTS. ES 2.0 has no quads — the paper's
// challenge #2 — so GPGPU full-screen geometry arrives as two triangles.
func (c *Context) DrawArrays(mode uint32, first, count int) {
	if first < 0 || count < 0 {
		c.setErr(INVALID_VALUE, "DrawArrays: negative first/count")
		return
	}
	indices := make([]int, count)
	for i := range indices {
		indices[i] = first + i
	}
	c.draw(mode, indices)
}

// DrawElements mirrors glDrawElements reading indices from the bound
// ELEMENT_ARRAY_BUFFER at the given byte offset.
func (c *Context) DrawElements(mode uint32, count int, typ uint32, offset int) {
	buf := c.boundBuffer(ELEMENT_ARRAY_BUFFER)
	if buf == nil {
		c.setErr(INVALID_OPERATION, "DrawElements: no ELEMENT_ARRAY_BUFFER bound")
		return
	}
	indices, ok := decodeIndices(buf.data, offset, count, typ)
	if !ok {
		c.setErr(INVALID_OPERATION, "DrawElements: index range out of bounds")
		return
	}
	c.draw(mode, indices)
}

// DrawElementsClient is the client-memory variant of glDrawElements.
func (c *Context) DrawElementsClient(mode uint32, typ uint32, data []byte) {
	count := 0
	switch typ {
	case UNSIGNED_BYTE:
		count = len(data)
	case UNSIGNED_SHORT:
		count = len(data) / 2
	default:
		c.setErr(INVALID_ENUM, "DrawElements: bad index type 0x%04x", typ)
		return
	}
	indices, _ := decodeIndices(data, 0, count, typ)
	c.draw(mode, indices)
}

func decodeIndices(data []byte, offset, count int, typ uint32) ([]int, bool) {
	out := make([]int, count)
	switch typ {
	case UNSIGNED_BYTE:
		if offset+count > len(data) {
			return nil, false
		}
		for i := 0; i < count; i++ {
			out[i] = int(data[offset+i])
		}
	case UNSIGNED_SHORT:
		if offset+count*2 > len(data) {
			return nil, false
		}
		for i := 0; i < count; i++ {
			out[i] = int(binary.LittleEndian.Uint16(data[offset+i*2:]))
		}
	default:
		return nil, false
	}
	return out, true
}

// draw runs the full pipeline for the given vertex indices.
func (c *Context) draw(mode uint32, indices []int) {
	if c.fault != nil {
		if _, ok := c.faultEnter(FaultOpDraw); !ok {
			return
		}
	}
	switch mode {
	case TRIANGLES, TRIANGLE_STRIP, TRIANGLE_FAN, POINTS:
	case LINES, LINE_STRIP, LINE_LOOP:
		c.setErr(INVALID_OPERATION, "draw: line primitives are not implemented by this simulator (GPGPU never uses them); use triangles")
		return
	default:
		c.setErr(INVALID_ENUM, "draw: bad mode 0x%04x", mode)
		return
	}
	p := c.programs[c.current]
	if p == nil || !p.linked {
		c.setErr(INVALID_OPERATION, "draw: no linked program in use")
		return
	}
	fb := c.currentFB()
	if !fb.isDefault {
		if status := c.CheckFramebufferStatus(FRAMEBUFFER); status != FRAMEBUFFER_COMPLETE {
			c.setErr(INVALID_FRAMEBUFFER_OPERATION, "draw: framebuffer incomplete (0x%04x)", status)
			return
		}
	}
	colorData, fbW, fbH, ok := c.colorTarget(fb)
	if !ok {
		c.setErr(INVALID_FRAMEBUFFER_OPERATION, "draw: no color target")
		return
	}
	// Rendering into a texture that is simultaneously sampled is undefined
	// in GL; it is allowed here (and produces coherent-but-unspecified
	// ordering on real hardware). The paper's runtime never does it.

	stats := DrawStats{DrawCalls: 1}
	samplers := c.bindSamplers()

	// ---- Vertex stage ----
	vex := c.newExecutor(p.vsProg, p.vsCode, samplers)
	c.pushUniforms(p, vex, p.vsProg)
	if err := vex.InitGlobals(); err != nil {
		c.setErr(INVALID_OPERATION, "draw: vertex shader init failed: %v", err)
		return
	}
	shaded := make([]raster.ShadedVertex, len(indices))
	pointSizes := make([]float32, len(indices))
	for i, vi := range indices {
		for _, a := range p.vsProg.Attributes {
			loc := p.attribLocs[a.Name]
			span := attribSpan(a.DeclType)
			val := shader.Zero(a.DeclType)
			// An out-of-range fetch (vertex beyond the array, or no
			// backing store) deliberately yields (0,0,0,1) instead of an
			// error: ES 2.0 makes reads past a client array undefined, and
			// this simulator pins them to robust-buffer-access-style
			// zero-fill (TestFetchAttribOutOfRangeZeroFill).
			if span == 1 {
				v4, _ := c.fetchAttrib(loc, vi)
				writeAttrib(&val, a.DeclType, v4)
			} else {
				dim := a.DeclType.MatrixDim()
				for col := 0; col < dim; col++ {
					v4, _ := c.fetchAttrib(loc+col, vi)
					for row := 0; row < dim; row++ {
						val.F[col*dim+row] = v4[row]
					}
				}
			}
			vex.SetGlobal(a, val)
		}
		if _, err := vex.Run(); err != nil {
			c.setErr(INVALID_OPERATION, "draw: vertex shader failed: %v", err)
			return
		}
		sv := raster.ShadedVertex{
			Pos:      vex.Position(),
			Varyings: make([]float32, p.varyComps),
		}
		for _, link := range p.varyings {
			vex.ReadGlobalFlat(link.vsDecl, sv.Varyings[link.offset:link.offset+link.comps])
		}
		shaded[i] = sv
		pointSizes[i] = vex.PointSize()
	}
	stats.VertexInvocations = uint64(len(indices))
	stats.VertexStats = *vex.StatsRef()

	// ---- Primitive assembly ----
	var tris [][3]raster.ShadedVertex
	var pts []raster.ShadedVertex
	switch mode {
	case TRIANGLES:
		for i := 0; i+2 < len(shaded); i += 3 {
			tris = append(tris, [3]raster.ShadedVertex{shaded[i], shaded[i+1], shaded[i+2]})
		}
	case TRIANGLE_STRIP:
		for i := 0; i+2 < len(shaded); i++ {
			if i%2 == 0 {
				tris = append(tris, [3]raster.ShadedVertex{shaded[i], shaded[i+1], shaded[i+2]})
			} else {
				tris = append(tris, [3]raster.ShadedVertex{shaded[i+1], shaded[i], shaded[i+2]})
			}
		}
	case TRIANGLE_FAN:
		for i := 1; i+1 < len(shaded); i++ {
			tris = append(tris, [3]raster.ShadedVertex{shaded[0], shaded[i], shaded[i+1]})
		}
	case POINTS:
		pts = shaded
	}

	frontCCW := c.frontFace == CCW

	// Face culling is view-independent: resolve it once here instead of
	// per tile.
	if c.cullOn {
		kept := tris[:0]
		for _, t := range tris {
			if !c.cullTriangle(t, frontCCW) {
				kept = append(kept, t)
			}
		}
		tris = kept
	}

	// ---- Fragment stage, parallel over framebuffer tiles ----
	//
	// The framebuffer is cut into a grid of square tiles claimed by the
	// workers through an atomic counter; the drawing goroutine is worker
	// 0. Output is bit-identical to the sequential path regardless of
	// worker count or tile size: a pixel belongs to exactly one tile,
	// each tile scans the draw's primitives in submission order (so
	// depth/blend sequencing per pixel matches), and the per-worker stats
	// are commutative sums (DESIGN.md §6h).
	vp := raster.Viewport{X: c.viewport[0], Y: c.viewport[1], W: c.viewport[2], H: c.viewport[3]}
	depthData := c.depthTarget(fb)

	workers, auto := c.workers, c.workers <= 0
	if auto {
		workers = runtime.GOMAXPROCS(0)
	}
	// Tiles cut the draw's footprint, not the whole framebuffer, so a
	// draw over a few rows of a tall target (a row prefix of a batched
	// tensor) still splits across every worker. Points keep the whole
	// framebuffer.
	rx0, ry0, rx1, ry1 := 0, 0, fbW, fbH
	if len(pts) == 0 {
		x0, y0, x1, y1 := raster.NewRasterizer(vp, 0).Bounds(tris)
		if x0, y0, x1, y1 = max(x0, 0), max(y0, 0), min(x1, fbW), min(y1, fbH); x0 < x1 && y0 < y1 {
			rx0, ry0, rx1, ry1 = x0, y0, x1, y1
		}
	}
	ts, tilesX, nTiles := shardGrid(rx1-rx0, ry1-ry0, c.tileSize, workers)
	workers = min(workers, nTiles)
	if auto && workers > 1 {
		helpers := c.helpers.take(workers - 1)
		defer c.helpers.give(helpers)
		workers = 1 + helpers
	}
	if workers == 1 {
		// Sequential reference path: one executor scanning the whole
		// framebuffer, the baseline the tiled path is validated against.
		nTiles = 1
	}

	// failed stops every worker once any shader fails: each checks it
	// before claiming a tile and before each fragment, so a failing draw
	// costs at most the fragment each worker is already running, not the
	// rest of the framebuffer.
	var (
		next   atomic.Int64
		failed atomic.Bool
	)
	workerStats := make([]DrawStats, workers)
	workerErrs := make([]error, workers)
	shade := func(w int) {
		fex := c.newExecutor(p.fsProg, p.fsCode, samplers)
		c.pushUniforms(p, fex, p.fsProg)
		if err := fex.InitGlobals(); err != nil {
			workerErrs[w] = err
			failed.Store(true)
			return
		}
		ws := &workerStats[w]
		rz := raster.NewRasterizer(vp, p.varyComps)
		rz.SetDepthRange(c.depthRange[0], c.depthRange[1])
		for !failed.Load() {
			t := int(next.Add(1)) - 1
			if t >= nTiles {
				break
			}
			if nTiles > 1 {
				x0 := rx0 + (t%tilesX)*ts
				y0 := ry0 + (t/tilesX)*ts
				rz.SetTile(x0, y0, min(x0+ts, rx1), min(y0+ts, ry1))
			}
			c.rasterizeRegion(p, fex, rz, tris, pts, pointSizes,
				frontCCW, fb, colorData, depthData, fbW, fbH,
				ws, &workerErrs[w], &failed)
		}
		ws.FragmentStats.AddStats(fex.StatsRef())
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shade(w)
		}()
	}
	shade(0)
	wg.Wait()
	c.lastShards, c.lastWorkers, c.lastFailed = nTiles, workers, 0

	// Merge in fixed worker-index order. The tile→worker assignment is
	// nondeterministic, but every counter is a commutative sum, so the
	// merged totals (and the framebuffer, whose tiles are disjoint) are
	// not affected by it. A failed draw reports what it shaded before it
	// stopped and the first worker's error, and adds nothing to Draws.
	var err error
	for w := 0; w < workers; w++ {
		stats.Add(&workerStats[w])
		if workerErrs[w] != nil {
			c.lastFailed++
			if err == nil {
				err = workerErrs[w]
			}
		}
	}
	stats.FragmentStats.Invocations = stats.FragmentsShaded
	c.lastDraw = stats
	if err != nil {
		c.setErr(INVALID_OPERATION, "draw: fragment shader failed: %v", err)
		return
	}
	c.draws.Add(&stats)
}

// defaultTileSize caps the edge length of the square framebuffer tiles
// the fragment stage shards draws into. 64 keeps a tile's color/depth
// footprint (~16 KiB + 16 KiB) cache-resident while leaving enough tiles
// on paper-sized framebuffers to balance the worker pool.
const defaultTileSize = 64

// tilesPerWorker is how many shards per worker a draw is cut into at
// least (while the edge allows): enough that a worker finishing early
// claims another tile instead of idling behind the slowest one.
const tilesPerWorker = 4

// shardGrid sizes a draw's tiles: the edge starts at the cap and halves
// until the fbW×fbH footprint (the draw's bounds in its framebuffer) has
// tilesPerWorker tiles per worker, or the edge is 1. Paper-sized draws
// keep the cap; a few-hundred-fragment draw splits finely enough to use
// every worker. A single worker keeps the cap, since it scans the whole
// framebuffer anyway.
func shardGrid(fbW, fbH, edgeCap, workers int) (ts, tilesX, nTiles int) {
	for ts = edgeCap; ; ts = (ts + 1) / 2 {
		tilesX = (fbW + ts - 1) / ts
		nTiles = tilesX * ((fbH + ts - 1) / ts)
		if workers <= 1 || ts == 1 || nTiles >= tilesPerWorker*workers {
			return ts, tilesX, nTiles
		}
	}
}

// helperBudget lends the extra shading goroutines of automatic-worker
// draws (Config.Workers == 0). Every such context draws from one
// process-wide budget of GOMAXPROCS−1 helpers, so an idle device's core
// helps a busy one, and busy devices together never run more shading
// goroutines than there are Ps. Lending never blocks: a draw that finds
// the budget empty shades alone.
type helperBudget struct {
	lent atomic.Int64
}

// rasterHelpers is the process-wide budget every context shares.
var rasterHelpers helperBudget

// take lends up to want helpers, as many as are free against the current
// GOMAXPROCS, and reports how many it lent.
func (b *helperBudget) take(want int) int {
	for {
		lent := b.lent.Load()
		n := min(int64(want), int64(runtime.GOMAXPROCS(0)-1)-lent)
		if n <= 0 {
			return 0
		}
		if b.lent.CompareAndSwap(lent, lent+n) {
			return int(n)
		}
	}
}

// give returns n helpers to the budget.
func (b *helperBudget) give(n int) {
	b.lent.Add(-int64(n))
}

// rasterizeRegion scans every primitive of the draw against the
// rasterizer's current tile (or the whole framebuffer when unrestricted)
// using one worker's executor, accumulating into its private stats. It
// shades nothing more once the draw has failed, and fails the draw on
// this worker's first shader error.
func (c *Context) rasterizeRegion(p *Program, fex shader.Executor, rz *raster.Rasterizer,
	tris [][3]raster.ShadedVertex, pts []raster.ShadedVertex, pointSizes []float32,
	frontCCW bool, fb *Framebuffer, colorData []byte, depthData []float32,
	fbW, fbH int, ws *DrawStats, werr *error, failed *atomic.Bool) {

	emit := func(fr *raster.Fragment) {
		if failed.Load() {
			return
		}
		c.shadeFragment(p, fex, fr, fb, colorData, depthData, fbW, fbH, ws, werr)
		if *werr != nil {
			failed.Store(true)
		}
	}
	for _, t := range tris {
		rz.Triangle(t[0], t[1], t[2], frontCCW, emit)
	}
	for pi, pt := range pts {
		rz.Point(pt, pointSizes[pi], func(fr *raster.Fragment, pcx, pcy float32) {
			fex.SetPointCoord(pcx, pcy)
			emit(fr)
		})
	}
}

// cullTriangle decides whether face culling rejects the triangle.
func (c *Context) cullTriangle(t [3]raster.ShadedVertex, frontCCW bool) bool {
	if c.cullMode == FRONT_AND_BACK {
		return true
	}
	// Signed area in NDC (w>0 assumed; matches rasterizer orientation).
	sgn := func(v raster.ShadedVertex) (x, y float64) {
		w := float64(v.Pos[3])
		if w == 0 {
			w = 1
		}
		return float64(v.Pos[0]) / w, float64(v.Pos[1]) / w
	}
	x0, y0 := sgn(t[0])
	x1, y1 := sgn(t[1])
	x2, y2 := sgn(t[2])
	area := (x1-x0)*(y2-y0) - (y1-y0)*(x2-x0)
	if area == 0 {
		return true
	}
	front := (area > 0) == frontCCW
	if front && c.cullMode == FRONT {
		return true
	}
	if !front && c.cullMode == BACK {
		return true
	}
	return false
}

// shadeFragment runs the fragment shader and the per-fragment pipeline
// (scissor → shader → depth → blend → mask → write).
func (c *Context) shadeFragment(p *Program, fex shader.Executor, fr *raster.Fragment,
	fb *Framebuffer, colorData []byte, depthData []float32, fbW, fbH int,
	ws *DrawStats, werr *error) {

	if fr.X < 0 || fr.X >= fbW || fr.Y < 0 || fr.Y >= fbH {
		return
	}
	if c.scissorOn {
		if fr.X < c.scissor[0] || fr.X >= c.scissor[0]+c.scissor[2] ||
			fr.Y < c.scissor[1] || fr.Y >= c.scissor[1]+c.scissor[3] {
			return
		}
	}
	// Early depth is illegal when shaders can discard; run shader first.
	fex.SetFragCoord(fr.FragCoord)
	fex.SetFrontFacing(fr.FrontFacing)
	for _, link := range p.varyings {
		fex.SetGlobalFlat(link.fsDecl, fr.Varyings[link.offset:link.offset+link.comps])
	}
	// Reset the color output (GL leaves it undefined; zero is deterministic).
	fex.ResetFragOutputs()

	discarded, err := fex.Run()
	if err != nil {
		*werr = err
		return
	}
	ws.FragmentsShaded++
	if discarded {
		ws.FragmentsDiscarded++
		return
	}

	// Depth test.
	if c.depthTestOn && depthData != nil {
		di := fr.Y*fbW + fr.X
		if !depthPass(c.depthFunc, fr.FragCoord[2], depthData[di]) {
			return
		}
		if c.depthMask {
			depthData[di] = fr.FragCoord[2]
		}
	}

	// Output color: gl_FragColor, or gl_FragData[0] if written.
	out := fex.FragOutput()
	r, g, b, a := out[0], out[1], out[2], out[3]

	o := (fr.Y*fbW + fr.X) * 4
	if c.blendOn {
		dr := float32(colorData[o+0]) / 255
		dg := float32(colorData[o+1]) / 255
		db := float32(colorData[o+2]) / 255
		da := float32(colorData[o+3]) / 255
		r, g, b, a = c.blend(r, g, b, a, dr, dg, db, da)
	}
	px := [4]byte{
		c.convertChannel(r), c.convertChannel(g),
		c.convertChannel(b), c.convertChannel(a),
	}
	for ch := 0; ch < 4; ch++ {
		if c.colorMask[ch] {
			colorData[o+ch] = px[ch]
		}
	}
	ws.PixelsWritten++
}

func depthPass(fn uint32, frag, stored float32) bool {
	switch fn {
	case NEVER:
		return false
	case LESS:
		return frag < stored
	case EQUAL:
		return frag == stored
	case LEQUAL:
		return frag <= stored
	case GREATER:
		return frag > stored
	case NOTEQUAL:
		return frag != stored
	case GEQUAL:
		return frag >= stored
	default:
		return true
	}
}

// blend applies the configured blend function/equation in fp32 and returns
// the blended source color.
func (c *Context) blend(sr, sg, sb, sa, dr, dg, db, da float32) (r, g, b, a float32) {
	factor := func(f uint32, isSrc bool) [4]float32 {
		switch f {
		case ZERO:
			return [4]float32{0, 0, 0, 0}
		case ONE:
			return [4]float32{1, 1, 1, 1}
		case SRC_COLOR:
			return [4]float32{sr, sg, sb, sa}
		case ONE_MINUS_SRC_COLOR:
			return [4]float32{1 - sr, 1 - sg, 1 - sb, 1 - sa}
		case SRC_ALPHA:
			return [4]float32{sa, sa, sa, sa}
		case ONE_MINUS_SRC_ALPHA:
			return [4]float32{1 - sa, 1 - sa, 1 - sa, 1 - sa}
		case DST_ALPHA:
			return [4]float32{da, da, da, da}
		case ONE_MINUS_DST_ALPHA:
			return [4]float32{1 - da, 1 - da, 1 - da, 1 - da}
		case DST_COLOR:
			return [4]float32{dr, dg, db, da}
		case ONE_MINUS_DST_COLOR:
			return [4]float32{1 - dr, 1 - dg, 1 - db, 1 - da}
		case SRC_ALPHA_SATURATE:
			// Src-only factor (BlendFunc rejects it as dst): f = min(As,
			// 1-Ad) on RGB, 1 on alpha.
			if !isSrc {
				return [4]float32{1, 1, 1, 1}
			}
			f := sa
			if 1-da < f {
				f = 1 - da
			}
			return [4]float32{f, f, f, 1}
		}
		return [4]float32{1, 1, 1, 1}
	}
	fs := factor(c.blendSrc, true)
	fd := factor(c.blendDst, false)
	src := [4]float32{sr, sg, sb, sa}
	dst := [4]float32{dr, dg, db, da}
	var out [4]float32
	for i := 0; i < 4; i++ {
		switch c.blendEq {
		case FUNC_SUBTRACT:
			out[i] = src[i]*fs[i] - dst[i]*fd[i]
		case FUNC_REVERSE_SUBTRACT:
			out[i] = dst[i]*fd[i] - src[i]*fs[i]
		default:
			out[i] = src[i]*fs[i] + dst[i]*fd[i]
		}
	}
	return out[0], out[1], out[2], out[3]
}

// pushUniforms copies program uniform values into an executor.
func (c *Context) pushUniforms(p *Program, ex shader.Executor, prog *glsl.Program) {
	for _, u := range prog.Uniforms {
		if v, ok := p.uniformVals[u.Name]; ok {
			ex.SetGlobal(u, v.Copy())
		}
	}
}

// writeAttrib stores a fetched vec4 into an attribute value of the declared
// type (float/vec2..4).
func writeAttrib(dst *shader.Value, t *glsl.Type, v4 [4]float32) {
	n := t.ComponentCount()
	for i := 0; i < n && i < 4; i++ {
		dst.F[i] = v4[i]
	}
}
