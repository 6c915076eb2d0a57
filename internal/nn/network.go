package nn

import (
	"fmt"

	"glescompute/internal/codec"
	"glescompute/internal/core"
)

// exactWindow is fp32's exact integer window: every linear index computed
// in-shader must stay below it, so every tensor flowing through a network
// (including the im2col patch matrix) is capped at 2^24 elements.
const exactWindow = 1 << 24

// Network is a Model compiled onto one device: a single device-resident
// core.Pipeline running every layer back to back on the GPU, with the
// weights resident in device buffers (uploaded once at Build). Run moves
// one input tensor up and the marked outputs back — between layers, zero
// host bytes (PipelineStats proves it).
//
// A Network is bound to its device and batch size; it is not safe for
// concurrent use (drive it from the device's goroutine, as sched workers
// do).
type Network struct {
	dev   *core.Device
	model *Model
	batch int

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
	// Output is the final layer's host data ([]float32 or []int32,
	// batch·outN elements).
	Output interface{}
	// Taps holds every layer's output in order when the network was built
	// with tapAll (nil otherwise); the last entry aliases Output.
	Taps []interface{}
	// Stats is the whole-chain pipeline execution report.
	Stats core.PipelineStats
	// LayerTimes aggregates Stats.StageTimes per layer (a conv layer owns
	// its im2col and GEMM passes, softmax its four scans).
	LayerTimes []core.Timeline
}

// Build compiles the model for the device at a fixed batch size. With
// tapAll every layer's output is marked as a pipeline output (the
// validation mode N1 uses); otherwise only the final layer is read back.
// The lane width follows the element type: int8 models take the 4-wide
// int8x4 lowering, float32/int32 models the scalar one.
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
	return m.build(dev, batch, tapAll, lanes)
}

// build is the one lowering of every element type and lane width. Every
// tensor lives in the activation format: FormatOf(elem), or FmtInt8x4 at
// lanes=4. Two rules specialize it:
//
//   - Channel padding. At lanes=4 every channel dimension is padded to a
//     multiple of 4 — the PHWC4-style C4 layout. The padding buys the
//     alignment invariant the 4-wide kernels assume: four consecutive
//     logical indices always share a texel, so receptive-field gathers,
//     GEMM row walks and weight fetches all decode four values per
//     texture access. Padded weight entries are zero, so padded channels
//     carry exact zeros through conv (0·x = 0), requant (floor(0) = 0),
//     relu and pool. At lanes=1 padding is the identity. Host-side
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
	act := codec.FormatOf(m.elem)
	pad := func(s Shape) Shape { return s }
	if lanes == 4 {
		act = codec.FmtInt8x4
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

	// kern compiles one nn kernel in the activation format: src at
	// lanes=1, src4 at lanes=4 (float-only kernels pass no src4).
	kern := func(name, src, src4 string, inputs, uniforms []string, ew, epilogue bool) (*core.Kernel, error) {
		if lanes == 4 {
			src = src4
		}
		return kernelFmt(dev, name, act, inputs, uniforms, src, ew, epilogue, lanes)
	}
	// weightInput uploads a host weight slice into a device-resident
	// buffer and declares it as a pipeline input.
	weightInput := func(layer, param string, w interface{}) (core.Ref, error) {
		n := core.HostLen(w)
		if err := checkN(layer+" "+param, n); err != nil {
			return -1, err
		}
		b, err := dev.NewBufferFmt(act, n)
		if err != nil {
			return -1, err
		}
		net.weightBufs = append(net.weightBufs, b)
		if err := b.WriteRange(0, w); err != nil {
			return -1, err
		}
		return net.p.InputFmt(act, n), nil
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
	// matmul lowers the GEMM of conv or dense layer li: x is a [rows][k]
	// matrix, w its (padded) [k][cols] weights. It is plain GEMM+bias, or
	// for int8 the requantizing GEMM with the following Rescale folded in.
	matmul := func(li int, x core.Ref, rows, k, cols int, w interface{}) (core.Ref, error) {
		l := m.layers[li]
		if err := checkAcc(l.name, k); err != nil {
			return -1, err
		}
		uni := map[string]float32{"u_cols": f(cols), "u_k": f(k)}
		var gemmK *core.Kernel
		var err error
		if quant {
			uni["u_scale"] = f(1 << m.layers[li+1].shift)
			gemmK, err = kern("nn-gemm-rq", gemmRequantSource, gemm4RequantSource, []string{"x", "w", "bias"},
				[]string{"u_cols", "u_k", "u_scale"}, false, true)
		} else {
			gemmK, err = kern("nn-gemm", gemmSource, "", []string{"x", "w", "bias"},
				[]string{"u_cols", "u_k"}, false, true)
		}
		if err != nil {
			return -1, err
		}
		wRef, err := weightInput(l.name, "weights", w)
		if err != nil {
			return -1, err
		}
		bRef, err := weightInput(l.name, "bias", relayout(l.bias, 1, core.HostLen(l.bias), 1, cols))
		if err != nil {
			return -1, err
		}
		return stage(li, l.name, net.p.StageN(gemmK, rows*cols, uni, x, wRef, bRef)), nil
	}

	cur := net.p.InputFmt(act, batch*net.padIn.N())
	curShape, curPad := m.in, net.padIn
	layerRefs := make([]core.Ref, len(m.layers))
	for li := 0; li < len(m.layers); li++ {
		l := m.layers[li]
		outPad := net.padOut[li]
		var out core.Ref
		switch l.kind {
		case KindConv:
			cs := l.conv
			// The patch matrix's inner dimension pads the logical
			// receptive field as a whole (see im2col4Source).
			k := cs.K()
			if lanes == 4 {
				k = ceil4(k)
			}
			rows := batch * cs.OutH() * cs.OutW()
			if err := checkN(l.name+" im2col matrix", rows*k); err != nil {
				return nil, err
			}
			// The two im2col lowerings have different interfaces: the packed
			// gather pads K (not channels) and needs both the logical and the
			// C4 channel strides of the input it walks.
			imVals := map[string]float32{
				"u_kk": f(k), "u_ohw": f(cs.OutH() * cs.OutW()), "u_ow": f(cs.OutW()), "u_ic": f(cs.InC),
				"u_stride": f(cs.Stride), "u_inh": f(cs.InH), "u_inw": f(cs.InW),
			}
			var im2colK *core.Kernel
			var err error
			if lanes == 4 {
				imVals["u_ic4"], imVals["u_kw"] = f(curPad.C), f(cs.KW)
				im2colK, err = kern("nn-im2col", "", im2col4Source, []string{"x"},
					[]string{"u_kk", "u_ohw", "u_ow", "u_ic", "u_ic4", "u_kw", "u_stride", "u_inh", "u_inw"}, false, true)
			} else {
				imVals["u_kwic"] = f(cs.KW * cs.InC)
				im2colK, err = kern("nn-im2col", im2colSource, "", []string{"x"},
					[]string{"u_kk", "u_ohw", "u_ow", "u_kwic", "u_ic", "u_stride", "u_inh", "u_inw"}, false, true)
			}
			if err != nil {
				return nil, err
			}
			patches := stage(li, l.name+"/im2col", net.p.StageN(im2colK, rows*k, imVals, cur))
			// Conv weights [K][outC]: zero tail rows and output columns.
			if out, err = matmul(li, patches, rows, k, outPad.C, relayout(l.w, cs.K(), cs.OutC, k, outPad.C)); err != nil {
				return nil, err
			}
		case KindDense:
			k := curPad.N()
			if k > maxInner {
				return nil, fmt.Errorf("nn: Build: %s padded input size %d exceeds kernel loop bound %d", l.name, k, maxInner)
			}
			// Dense weights [in][out]: the input index follows the padded
			// HWC layout of the producing layer, so widen the output
			// columns, then each pixel's channel block.
			pix := curShape.H * curShape.W
			w := relayout(l.w, pix*curShape.C, l.out, pix*curShape.C, outPad.C)
			w = relayout(w, pix, curShape.C*outPad.C, pix, curPad.C*outPad.C)
			var err error
			if out, err = matmul(li, cur, batch, k, outPad.C, w); err != nil {
				return nil, err
			}
		case KindDW:
			ds := l.dw
			taps := ds.KH * ds.KW
			if err := checkAcc(l.name, taps); err != nil {
				return nil, err
			}
			name, src := "nn-dwconv", dwSource
			if quant {
				// The requant scale is baked into the source (uniform
				// budget — see dwRequantSourceTmpl).
				name, src = "nn-dwconv-rq", dwRequantSrc(m.layers[li+1].shift, lanes == 4)
			}
			dwK, err := kern(name, src, src, []string{"x", "w", "bias"},
				[]string{"u_on", "u_owc", "u_c", "u_taps", "u_kw", "u_stride", "u_inh", "u_inw"}, false, true)
			if err != nil {
				return nil, err
			}
			c := curPad.C
			wRef, err := weightInput(l.name, "weights", relayout(l.w, taps, ds.C, taps, c))
			if err != nil {
				return nil, err
			}
			bRef, err := weightInput(l.name, "bias", relayout(l.bias, 1, ds.C, 1, c))
			if err != nil {
				return nil, err
			}
			out = stage(li, l.name, net.p.StageN(dwK, batch*outPad.N(), map[string]float32{
				"u_on": f(outPad.N()), "u_owc": f(outPad.W * c), "u_c": f(c),
				"u_taps": f(taps), "u_kw": f(ds.KW), "u_stride": f(ds.Stride),
				"u_inh": f(ds.InH), "u_inw": f(ds.InW),
			}, cur, wRef, bRef))
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
		b, err := dev.NewBufferFmt(act, batch*net.padOut[li].N())
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
	imgBuf, err := dev.NewBufferFmt(act, batch*net.padIn.N())
	if err != nil {
		return nil, err
	}
	net.imgBuf = imgBuf
	ok = true
	return net, nil
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
// a LeNet-scale float network drops from 15 builder stages to 8 fragment
// passes — with int32 outputs bit-identical either way.
func (n *Network) SetFusion(on bool) { n.p.SetFusion(on) }

// PlannedPasses reports the pipeline's planned fragment passes
// post-fusion (labels like "conv1+relu1"); it freezes the plan exactly
// as the first Run would.
func (n *Network) PlannedPasses() ([]string, error) { return n.p.PlannedPasses() }

// Batch returns the batch size the network was built for.
func (n *Network) Batch() int { return n.batch }

// Lanes returns the lowering's lane width: 1 (scalar) or 4 (int8x4).
func (n *Network) Lanes() int { return n.lanes }

// Model returns the model the network was built from.
func (n *Network) Model() *Model { return n.model }

// Run uploads input (batch·In().N() elements of the model element type),
// executes the whole network on the device, and reads back the marked
// outputs.
func (n *Network) Run(input interface{}) (*Result, error) {
	if n.closed {
		return nil, fmt.Errorf("nn: Run: %w", core.ErrClosed)
	}
	if err := n.model.checkInput("Run", input, n.batch); err != nil {
		return nil, err
	}
	// The network runs on the padded layout: widen the input's channels
	// host-side (zero-filled; the identity at lanes=1) before upload.
	in := n.model.in
	pix := n.batch * in.H * in.W
	if err := n.imgBuf.WriteRange(0, relayout(input, pix, in.C, pix, n.padIn.C)); err != nil {
		return nil, err
	}
	ins := append([]*core.Buffer{n.imgBuf}, n.weightBufs...)
	stats, err := n.p.Run(n.outBufs, ins, nil)
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
		out, err := n.outBufs[bi].ReadRange(0, n.outBufs[bi].Len())
		if err != nil {
			return nil, err
		}
		logical := n.model.layers[li].outShape
		pix := n.batch * logical.H * logical.W
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
