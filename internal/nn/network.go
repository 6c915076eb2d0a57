package nn

import (
	"fmt"

	"glescompute/internal/codec"
	"glescompute/internal/core"
)

// exactWindow is fp32's exact integer window: every linear index computed
// in-shader must stay below it, so every tensor flowing through a network
// is capped at 2^24 elements.
const exactWindow = 1 << 24

// Network is a Model compiled onto one device: a single device-resident
// core.Pipeline running every layer back to back on the GPU, with the
// weights resident in device buffers (uploaded once at Build). Run moves
// one input tensor up and the marked outputs back — between layers, zero
// host bytes (PipelineStats proves it).
//
// A Network is bound to its device and built for a capacity of B images;
// each Run takes any 1..B of them and computes only those (the batch is
// the outermost dimension of every tensor, so k images are a row prefix
// of each). It is not safe for concurrent use (drive it from the device's
// goroutine, as sched workers do).
type Network struct {
	dev   *core.Device
	model *Model
	batch int // capacity B

	p          *core.Pipeline
	imgBuf     *core.Buffer
	weightBufs []*core.Buffer
	outBufs    []*core.Buffer
	tapAll     bool
	stageOf    []int // pipeline stage index -> layer index
	closed     bool

	// Layout state. lanes is 1 for every float32/int32 network; the
	// 4-wide int8 lowering pads all channel dimensions to multiples of 4
	// (C4 layout), and padIn/padOut hold the padded shapes (the logical
	// ones at lanes=1) for input padding and readback stripping. tapBuf
	// maps layer index -> outBufs index (folded int8 matmul+Rescale pairs
	// share one buffer).
	lanes  int
	padIn  Shape
	padOut []Shape
	tapBuf []int
}

// Result is one Network.Run execution.
type Result struct {
	// Output is the final layer's host data (the model's element type,
	// k·outN elements for a run of k images).
	Output interface{}
	// Taps holds every layer's output in order when the network was built
	// with tapAll (nil otherwise); the last entry aliases Output.
	Taps []interface{}
	// Stats is the whole-chain pipeline execution report.
	Stats core.PipelineStats
	// LayerTimes aggregates Stats.StageTimes per layer (softmax owns its
	// log-sum-exp and normalize passes).
	LayerTimes []core.Timeline
}

// Build compiles the model for the device with a capacity of batch
// images: every Run then takes 1..batch of them. With tapAll every
// layer's output is marked as a pipeline output (the validation mode N1
// uses); otherwise only the final layer is read back. The lane width
// follows the element type: int8 models take the 4-wide int8x4 lowering,
// float32/int32 models the scalar one.
func (m *Model) Build(dev *core.Device, batch int, tapAll bool) (*Network, error) {
	lanes := 1
	if m.elem == codec.Int8 {
		lanes = 4
	}
	return m.BuildLanes(dev, batch, tapAll, lanes)
}

// BuildLanes is Build with an explicit lane width: 1 for the scalar
// lowering (any element type), 4 for the packed int8x4 lowering (int8
// models only). The two int8 lowerings are bit-identical after padding
// is stripped — the N1 experiment's differential asserts it.
func (m *Model) BuildLanes(dev *core.Device, batch int, tapAll bool, lanes int) (*Network, error) {
	if m.err != nil {
		return nil, m.err
	}
	if len(m.layers) == 0 {
		return nil, fmt.Errorf("nn: Build: model has no layers")
	}
	if batch <= 0 {
		return nil, fmt.Errorf("nn: Build: non-positive batch %d", batch)
	}
	if lanes != 1 && lanes != 4 {
		return nil, fmt.Errorf("nn: Build: lane width %d not supported (1 or 4)", lanes)
	}
	if lanes == 4 && m.elem != codec.Int8 {
		return nil, fmt.Errorf("nn: Build: 4-wide lowering requires an int8 model, got %s", m.elem)
	}
	if w := dev.MaxGridWidth(); lanes == 4 && w%4 != 0 {
		// The 4-wide kernels step weights 4 texels at a time with one
		// row-wrap check, so no aligned group may straddle a row.
		return nil, fmt.Errorf("nn: Build: 4-wide lowering needs a max grid width that is a multiple of 4, got %d", w)
	}
	return m.build(dev, batch, tapAll, lanes)
}

// build is the one lowering of every element type and lane width. Every
// tensor lives in the activation type: the model's element type, or
// codec.Int8x4 at lanes=4. Two rules specialize it:
//
//   - Channel padding. At lanes=4 every channel dimension is padded to a
//     multiple of 4 — the PHWC4-style C4 layout. The padding buys the
//     alignment invariant the 4-wide kernels assume: four consecutive
//     logical indices always share a texel, so convolution and GEMM row
//     walks and weight fetches all decode four values per texture
//     access. Padded weight entries are zero, so padded channels carry
//     exact zeros through conv (0·x = 0), requant (floor(0) = 0), relu
//     and pool. At lanes=1 padding is the identity. Host-side
//     padding and stripping happen once per Run at the input and readback
//     boundaries; between layers everything stays padded on the device.
//   - The int8 requant fold. Int8 activations cannot hold a matmul's
//     accumulator, so every conv/dense/depthwise layer of an int8 model
//     folds the following Rescale into its kernel:
//     clamp(floor(acc/2^shift), -128, 127). int8FoldCheck guarantees the
//     Rescale exists; both layers own the one pass and share its output.
func (m *Model) build(dev *core.Device, batch int, tapAll bool, lanes int) (*Network, error) {
	quant := m.elem == codec.Int8
	if quant {
		if err := m.int8FoldCheck(); err != nil {
			return nil, err
		}
	}
	act := m.elem
	pad := func(s Shape) Shape { return s }
	if lanes == 4 {
		act = codec.Int8x4
		pad = func(s Shape) Shape { return Shape{H: s.H, W: s.W, C: ceil4(s.C)} }
	}
	net := &Network{dev: dev, model: m, batch: batch, p: dev.NewPipeline(), tapAll: tapAll, lanes: lanes}
	net.padIn = pad(m.in)
	net.padOut = make([]Shape, len(m.layers))
	for li, l := range m.layers {
		net.padOut[li] = pad(l.outShape)
	}
	ok := false
	defer func() {
		if !ok {
			net.Close()
		}
	}()

	checkN := func(what string, n int) error {
		if n >= exactWindow {
			return fmt.Errorf("nn: Build: %s has %d elements, beyond the exact fp32 index window (2^24)", what, n)
		}
		return nil
	}
	// Worst-case int8 matmul accumulator: K·128·128 + 128 must stay
	// inside the exact window for the requant to be bit-exact.
	checkAcc := func(layer string, k int) error {
		if quant && k*16384+128 >= exactWindow {
			return fmt.Errorf("nn: Build: %s inner dimension %d can overflow the exact fp32 accumulator window with int8 operands", layer, k)
		}
		return nil
	}
	if err := checkN("input tensor", batch*net.padIn.N()); err != nil {
		return nil, err
	}

	// kern declares one nn kernel in the activation type: src at
	// lanes=1, src4 at lanes=4 (float-only kernels pass no src4).
	kern := func(name, src, src4 string, inputs, uniforms []string, ew, epilogue bool) (*core.Kernel, error) {
		if lanes == 4 {
			src = src4
		}
		return typedKernel(dev, name, act, inputs, uniforms, src, ew, epilogue)
	}
	// weightInput uploads a host weight slice into a device-resident
	// buffer and declares it as a pipeline input.
	weightInput := func(layer, param string, w interface{}) (core.Ref, error) {
		n := core.HostLen(w)
		if err := checkN(layer+" "+param, n); err != nil {
			return -1, err
		}
		b, err := dev.NewBuffer(act, n)
		if err != nil {
			return -1, err
		}
		net.weightBufs = append(net.weightBufs, b)
		if err := b.WriteRange(0, w); err != nil {
			return -1, err
		}
		return net.p.Input(act, n), nil
	}
	// stage records stage->layer ownership and labels the stage, so fused
	// passes report as "conv1+relu1" and PipelineStats attribution maps
	// back to layers.
	stage := func(li int, label string, r core.Ref) core.Ref {
		net.stageOf = append(net.stageOf, li)
		net.p.Label(label)
		return r
	}
	f := func(v int) float32 { return float32(v) }
	// weightedStage wires the conv, dense or depthwise kernel of layer li
	// into the pipeline over input x, with its weights w ([K][out.C]) and
	// its bias widened to the padded output channels. At lanes=4 the
	// weights are stored unit-major for the kernels' walks.
	weightedStage := func(li int, k *core.Kernel, uni map[string]float32, x core.Ref, w interface{}) (core.Ref, error) {
		l, out := m.layers[li], net.padOut[li]
		if lanes == 4 {
			w = unitMajor(w.([]int8), out.C)
		}
		wRef, err := weightInput(l.name, "weights", w)
		if err != nil {
			return -1, err
		}
		bRef, err := weightInput(l.name, "bias", relayout(l.bias, 1, core.HostLen(l.bias), 1, out.C))
		if err != nil {
			return -1, err
		}
		return stage(li, l.name, net.p.StageN(k, batch*out.N(), uni, x, wRef, bRef)), nil
	}

	cur := net.p.InputRows(act, batch*net.padIn.N(), batch)
	curShape, curPad := m.in, net.padIn
	layerRefs := make([]core.Ref, len(m.layers))
	for li := 0; li < len(m.layers); li++ {
		l := m.layers[li]
		outPad := net.padOut[li]
		var out core.Ref
		switch l.kind {
		case KindConv:
			// Direct convolution (see convSourceTmpl): one fragment per
			// output unit — an element at lanes=1, a C4 texel at lanes=4 —
			// reading its receptive field straight from the activations.
			// A 1-channel input takes the narrow 4-wide kernel, whose
			// weights skip the three zero lanes of the padded input.
			cs := l.conv
			if err := checkAcc(l.name, cs.K()); err != nil {
				return nil, err
			}
			ic := curPad.C / lanes // input units per pixel; KW·ic ≤ K ≤ maxInner
			narrow := cs.InC == 1
			w := relayout(l.w, cs.K(), cs.OutC, cs.K(), outPad.C)
			if !narrow {
				// [ky·kx][ic][oc]: widen each tap's channel block to C4.
				w = relayout(w, cs.KH*cs.KW, cs.InC*outPad.C, cs.KH*cs.KW, curPad.C*outPad.C)
			}
			name, shift := "nn-conv", uint(0)
			if quant {
				name, shift = "nn-conv-rq", m.layers[li+1].shift
			}
			src := convSrc(cs.KH, lanes, narrow, quant, shift)
			convK, err := kern(name, src, src, []string{"x", "w", "bias"}, convUniforms, false, true)
			if err != nil {
				return nil, err
			}
			if out, err = weightedStage(li, convK, map[string]float32{
				"u_oc": f(outPad.C / lanes), "u_ohw": f(cs.OutH() * cs.OutW()), "u_ow": f(cs.OutW()),
				"u_ximg": f(cs.InH * cs.InW * ic), "u_ystep": f(cs.Stride * cs.InW * ic),
				"u_xstep": f(cs.Stride * ic), "u_xrow": f(cs.InW * ic), "u_kwic": f(cs.KW * ic),
			}, cur, w); err != nil {
				return nil, err
			}
		case KindDense:
			k := curPad.N()
			if k > maxInner {
				return nil, fmt.Errorf("nn: Build: %s padded input size %d exceeds kernel loop bound %d", l.name, k, maxInner)
			}
			if err := checkAcc(l.name, k); err != nil {
				return nil, err
			}
			// Dense weights [in][out]: the input index follows the padded
			// HWC layout of the producing layer, so widen the output
			// columns, then each pixel's channel block.
			pix := curShape.H * curShape.W
			w := relayout(l.w, pix*curShape.C, l.out, pix*curShape.C, outPad.C)
			w = relayout(w, pix, curShape.C*outPad.C, pix, curPad.C*outPad.C)
			uni := map[string]float32{"u_cols": f(outPad.C), "u_k": f(k)}
			name, src, src4 := "nn-gemm", gemmSrc(false), ""
			uniforms := []string{"u_cols", "u_k"}
			if quant {
				uni["u_scale"] = f(1 << m.layers[li+1].shift)
				name, src, src4 = "nn-gemm-rq", gemmSrc(true), gemm4RequantSource
				uniforms = append(uniforms, "u_scale")
			}
			gemmK, err := kern(name, src, src4, []string{"x", "w", "bias"}, uniforms, false, true)
			if err != nil {
				return nil, err
			}
			if out, err = weightedStage(li, gemmK, uni, cur, w); err != nil {
				return nil, err
			}
		case KindDW:
			ds := l.dw
			taps := ds.KH * ds.KW
			if err := checkAcc(l.name, taps); err != nil {
				return nil, err
			}
			name, shift := "nn-dwconv", uint(0)
			if quant {
				// The requant scale is baked into the source (uniform
				// budget — see dwSourceTmpl).
				name, shift = "nn-dwconv-rq", m.layers[li+1].shift
			}
			src := dwSrc(lanes, quant, shift)
			dwK, err := kern(name, src, src, []string{"x", "w", "bias"},
				[]string{"u_on", "u_owc", "u_c", "u_taps", "u_kw", "u_stride", "u_inh", "u_inw"}, false, true)
			if err != nil {
				return nil, err
			}
			c := curPad.C
			if out, err = weightedStage(li, dwK, map[string]float32{
				"u_on": f(outPad.N()), "u_owc": f(outPad.W * c), "u_c": f(c),
				"u_taps": f(taps), "u_kw": f(ds.KW), "u_stride": f(ds.Stride),
				"u_inh": f(ds.InH), "u_inw": f(ds.InW),
			}, cur, relayout(l.w, taps, ds.C, taps, c)); err != nil {
				return nil, err
			}
		case KindPool:
			c := curPad.C
			poolK, err := kern("nn-maxpool", poolSource, pool4Source, []string{"x"},
				[]string{"u_on", "u_owc", "u_c", "u_taps", "u_pw", "u_stride", "u_inh", "u_inw"}, false, true)
			if err != nil {
				return nil, err
			}
			out = stage(li, l.name, net.p.StageN(poolK, batch*outPad.N(), map[string]float32{
				"u_on": f(outPad.N()), "u_owc": f(outPad.W * c), "u_c": f(c),
				"u_taps": f(l.ph * l.pw), "u_pw": f(l.pw), "u_stride": f(l.stride),
				"u_inh": f(curPad.H), "u_inw": f(curPad.W),
			}, cur))
			if l.stride >= l.ph && l.stride >= l.pw {
				// Non-overlapping windows (stride clears the window in
				// both axes) read each producer element at most once:
				// fusing the producing GEMM into the pooling pass deletes
				// its draw and codec round trip with zero recompute
				// amplification.
				net.p.InlineInput(0)
			}
		case KindReLU:
			reluK, err := kern("nn-relu", reluSource, relu4Source, []string{"x"}, nil, true, false)
			if err != nil {
				return nil, err
			}
			out = stage(li, l.name, net.p.Stage(reluK, nil, cur))
		case KindSoftmax:
			n := curShape.N()
			// lse opts into body inlining (FusableEpilogue) so the
			// normalize pass can absorb it for small rows.
			lseK, err := kern("nn-logsumexp", lseSource, "", []string{"x"}, []string{"u_n"}, false, true)
			if err != nil {
				return nil, err
			}
			normK, err := kern("nn-smnorm", smNormSource, "", []string{"x", "l"}, []string{"u_n"}, false, false)
			if err != nil {
				return nil, err
			}
			uni := map[string]float32{"u_n": f(n)}
			lse := stage(li, l.name+"/lse", net.p.StageN(lseK, batch, uni, cur))
			out = stage(li, l.name, net.p.StageN(normK, batch*n, uni, cur, lse))
			if n <= 64 {
				// Each normalize fragment recomputes its row's
				// log-sum-exp: n extra row scans of length n per row
				// beats a whole extra launch while n² stays trivial.
				net.p.InlineInput(1)
			}
		case KindRescale:
			// Reached by float32/int32 models only: int8 folds every
			// Rescale into the matmul before it.
			src, name := rescaleFloatSource, "nn-rescale"
			if m.elem == codec.Int32 {
				src, name = rescaleIntSource, "nn-rescale-int"
			}
			rescaleK, err := kern(name, src, "", []string{"x"}, []string{"u_scale"}, true, false)
			if err != nil {
				return nil, err
			}
			out = stage(li, l.name, net.p.Stage(rescaleK, map[string]float32{"u_scale": f(1 << l.shift)}, cur))
		default:
			return nil, fmt.Errorf("nn: Build: unknown layer kind %q", l.kind)
		}
		if err := checkN(l.name+" output", batch*outPad.N()); err != nil {
			return nil, err
		}
		layerRefs[li] = out
		if quant && matmulKind(l.kind) {
			// The following Rescale is folded into the pass just built:
			// it owns the same slot and gets no stage of its own.
			li++
			layerRefs[li] = out
		}
		cur = out
		curShape, curPad = m.layers[li].outShape, net.padOut[li]
	}

	// Mark outputs: one buffer per distinct slot (folded matmul+Rescale
	// pairs share one), holding the padded tensor; Run strips on readback.
	mark := func(li int) error {
		net.p.Output(layerRefs[li])
		b, err := dev.NewBuffer(act, batch*net.padOut[li].N())
		if err != nil {
			return err
		}
		net.outBufs = append(net.outBufs, b)
		return nil
	}
	if tapAll {
		net.tapBuf = make([]int, len(m.layers))
		for li := range m.layers {
			if li > 0 && layerRefs[li] == layerRefs[li-1] {
				net.tapBuf[li] = net.tapBuf[li-1]
				continue
			}
			if err := mark(li); err != nil {
				return nil, err
			}
			net.tapBuf[li] = len(net.outBufs) - 1
		}
	} else if err := mark(len(m.layers) - 1); err != nil {
		return nil, err
	}
	if err := net.p.Err(); err != nil {
		return nil, err
	}
	imgBuf, err := dev.NewBuffer(act, batch*net.padIn.N())
	if err != nil {
		return nil, err
	}
	net.imgBuf = imgBuf
	ok = true
	return net, nil
}

// unitMajor re-lays a row-major [rows][cols] int8 weight matrix (cols a
// multiple of 4) as [cols/4][rows][4]: each 4-channel output unit's
// weights become one contiguous run of rows texels, the run a 4-wide
// kernel's fragment walks (DESIGN.md §6c). Same bytes, no padding.
func unitMajor(w []int8, cols int) []int8 {
	rows := len(w) / cols
	out := make([]int8, len(w))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out[(c/4*rows+r)*4+c%4] = w[r*cols+c]
		}
	}
	return out
}

// ceil4 rounds up to a multiple of 4 (the C4 channel padding).
func ceil4(n int) int { return (n + 3) &^ 3 }

// relayout copies a row-major [rows][cols] host matrix into a zeroed
// [rowsTo][colsTo] one, keeping the leading min(cols, colsTo) elements of
// each of the first min(rows, rowsTo) rows: it adds or strips C4 padding.
// Matching shapes return x itself, so at lanes=1 every call is the
// identity; only int8 tensors are ever re-laid.
func relayout(x interface{}, rows, cols, rowsTo, colsTo int) interface{} {
	if rows == rowsTo && cols == colsTo {
		return x
	}
	src := x.([]int8)
	out := make([]int8, rowsTo*colsTo)
	n := min(cols, colsTo)
	for r := 0; r < min(rows, rowsTo); r++ {
		copy(out[r*colsTo:r*colsTo+n], src[r*cols:r*cols+n])
	}
	return out
}

// SetFusion enables or disables the pipeline's automatic kernel fusion
// for this network; call it between Build and the first Run. Fusion is on
// by default.
// With fusion on, element-wise layers (ReLU, Rescale) merge into the pass
// of the layer producing their input, non-overlapping pools absorb their
// producing GEMM chain, and the softmax normalize absorbs its row scan —
// a LeNet-scale float network drops from 13 builder stages to 6 fragment
// passes — with int32 outputs bit-identical either way.
func (n *Network) SetFusion(on bool) { n.p.SetFusion(on) }

// PlannedPasses reports the pipeline's planned fragment passes
// post-fusion (labels like "conv1+relu1"); it freezes the plan exactly
// as the first Run would.
func (n *Network) PlannedPasses() ([]string, error) { return n.p.PlannedPasses() }

// Batch returns the network's capacity: the most images one Run takes.
func (n *Network) Batch() int { return n.batch }

// Lanes returns the lowering's lane width: 1 (scalar) or 4 (int8x4).
func (n *Network) Lanes() int { return n.lanes }

// Model returns the model the network was built from.
func (n *Network) Model() *Model { return n.model }

// Run uploads input — k images, k·In().N() elements of the model's
// element type for any k in 1..Batch() — executes the whole network on
// the device for those k images only, and reads back their marked
// outputs.
func (n *Network) Run(input interface{}) (*Result, error) {
	if n.closed {
		return nil, fmt.Errorf("nn: Run: %w", core.ErrClosed)
	}
	k, err := n.model.imageCount("Run", input)
	if err != nil {
		return nil, err
	}
	if k > n.batch {
		return nil, fmt.Errorf("nn: Run: %d images exceed the network's capacity of %d", k, n.batch)
	}
	// The network runs on the padded layout: widen the input's channels
	// host-side (zero-filled; the identity at lanes=1), then extend the
	// upload to the end of the texel row holding the last image, since a
	// partial upload must cover whole rows (core.Buffer.WriteRange).
	in := n.model.in
	pix := k * in.H * in.W
	up := relayout(input, pix, in.C, pix, n.padIn.C)
	lanes, w := n.imgBuf.Elem().Lanes(), n.imgBuf.Grid().Width
	if rowEnd := min((pix*n.padIn.C/lanes+w-1)/w*w*lanes, n.imgBuf.Len()); core.HostLen(up) < rowEnd {
		wide := core.NewHostSlice(n.model.elem, rowEnd)
		core.CopyHostSlice(wide, 0, up)
		up = wide
	}
	if err := n.imgBuf.WriteRange(0, up); err != nil {
		return nil, err
	}
	ins := append([]*core.Buffer{n.imgBuf}, n.weightBufs...)
	stats, err := n.p.RunRows(k, n.outBufs, ins, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{Stats: stats, LayerTimes: make([]core.Timeline, len(n.model.layers))}
	for si, li := range n.stageOf {
		if si < len(stats.StageTimes) {
			res.LayerTimes[li] = res.LayerTimes[li].Add(stats.StageTimes[si])
		}
	}
	// Read each marked buffer once, stripping the padding; layers folded
	// into one pass (int8 matmul+Rescale) alias the same host data.
	read := make([]interface{}, len(n.outBufs))
	readFor := func(bi, li int) (interface{}, error) {
		if read[bi] != nil {
			return read[bi], nil
		}
		out, err := n.outBufs[bi].ReadRange(0, n.outBufs[bi].Len()/n.batch*k)
		if err != nil {
			return nil, err
		}
		logical := n.model.layers[li].outShape
		pix := k * logical.H * logical.W
		out = relayout(out, pix, n.padOut[li].C, pix, logical.C)
		read[bi] = out
		return out, nil
	}
	if n.tapAll {
		res.Taps = make([]interface{}, len(n.model.layers))
		for li := range n.model.layers {
			out, err := readFor(n.tapBuf[li], li)
			if err != nil {
				return nil, err
			}
			res.Taps[li] = out
		}
		res.Output = res.Taps[len(res.Taps)-1]
	} else {
		out, err := readFor(0, len(n.model.layers)-1)
		if err != nil {
			return nil, err
		}
		res.Output = out
	}
	return res, nil
}

// Close releases the network's pipeline and device buffers (weights,
// input, outputs). The kernels stay in the device's compile-once cache.
// Idempotent.
func (n *Network) Close() error {
	if n.closed {
		return nil
	}
	n.closed = true
	if n.p != nil {
		n.p.Close()
	}
	if n.imgBuf != nil {
		n.imgBuf.Free()
	}
	for _, b := range n.weightBufs {
		b.Free()
	}
	for _, b := range n.outBufs {
		b.Free()
	}
	return nil
}
