package nn

import (
	"math"
	"math/rand"
	"testing"

	"glescompute/internal/codec"
	"glescompute/internal/core"
)

func openTest(t *testing.T) *core.Device {
	t.Helper()
	dev, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// runNet builds the model at the given batch with all layers tapped and
// runs it once.
func runNet(t *testing.T, dev *core.Device, m *Model, batch int, input interface{}) *Result {
	t.Helper()
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	net, err := m.Build(dev, batch, true)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	res, err := net.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkInt32Exact asserts GPU output bit-identical to the reference.
func checkInt32Exact(t *testing.T, layer string, got, want interface{}) {
	t.Helper()
	g, w := got.([]int32), want.([]int32)
	if len(g) != len(w) {
		t.Fatalf("%s: %d outputs, want %d", layer, len(g), len(w))
	}
	for i := range w {
		if g[i] != w[i] {
			t.Fatalf("%s: element %d: got %d, want %d (int path must be bit-identical)", layer, i, g[i], w[i])
		}
	}
}

func checkFloatClose(t *testing.T, layer string, got, want interface{}, tol float64) {
	t.Helper()
	g, w := got.([]float32), want.([]float32)
	if len(g) != len(w) {
		t.Fatalf("%s: %d outputs, want %d", layer, len(g), len(w))
	}
	if worst := MaxHybridErr(got, want); worst > tol {
		t.Fatalf("%s: worst error %.3g exceeds tolerance %.3g", layer, worst, tol)
	}
}

func randF(rng *rand.Rand, n int, scale float32) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = (rng.Float32()*2 - 1) * scale
	}
	return out
}

func randI(rng *rand.Rand, n, lo, hi int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(lo + rng.Intn(hi-lo+1))
	}
	return out
}

// singleLayerModels builds one tiny model per layer kind (odd sizes,
// stride 2 variants included) for both element types.
func TestSingleLayersDifferential(t *testing.T) {
	dev := openTest(t)
	defer dev.Close()
	rng := rand.New(rand.NewSource(1))

	cases := []struct {
		name  string
		in    Shape
		build func(m *Model, elem codec.ElemType)
	}{
		{"conv-3x3", Shape{7, 9, 3}, func(m *Model, e codec.ElemType) {
			k := 3 * 3 * 3 * 5
			if e == codec.Float32 {
				m.Conv2D("conv", 3, 3, 5, 1, randF(rng, k, 0.5), randF(rng, 5, 0.5))
			} else {
				m.Conv2D("conv", 3, 3, 5, 1, randI(rng, k, -3, 3), randI(rng, 5, -9, 9))
			}
		}},
		{"conv-stride2", Shape{9, 9, 2}, func(m *Model, e codec.ElemType) {
			k := 3 * 3 * 2 * 4
			if e == codec.Float32 {
				m.Conv2D("conv", 3, 3, 4, 2, randF(rng, k, 0.5), randF(rng, 4, 0.5))
			} else {
				m.Conv2D("conv", 3, 3, 4, 2, randI(rng, k, -3, 3), randI(rng, 4, -9, 9))
			}
		}},
		{"dwconv", Shape{8, 6, 4}, func(m *Model, e codec.ElemType) {
			if e == codec.Float32 {
				m.DepthwiseConv("dw", 3, 3, 1, randF(rng, 9*4, 0.5), randF(rng, 4, 0.5))
			} else {
				m.DepthwiseConv("dw", 3, 3, 1, randI(rng, 9*4, -3, 3), randI(rng, 4, -9, 9))
			}
		}},
		{"dwconv-stride2", Shape{9, 7, 3}, func(m *Model, e codec.ElemType) {
			if e == codec.Float32 {
				m.DepthwiseConv("dw", 3, 3, 2, randF(rng, 9*3, 0.5), randF(rng, 3, 0.5))
			} else {
				m.DepthwiseConv("dw", 3, 3, 2, randI(rng, 9*3, -3, 3), randI(rng, 3, -9, 9))
			}
		}},
		{"maxpool-2x2", Shape{6, 8, 3}, func(m *Model, e codec.ElemType) {
			m.MaxPool("pool", 2, 2, 2)
		}},
		{"maxpool-3x3s1", Shape{7, 7, 2}, func(m *Model, e codec.ElemType) {
			m.MaxPool("pool", 3, 3, 1)
		}},
		{"relu", Shape{5, 5, 4}, func(m *Model, e codec.ElemType) {
			m.ReLU("relu")
		}},
		{"dense", Shape{3, 4, 5}, func(m *Model, e codec.ElemType) {
			if e == codec.Float32 {
				m.Dense("fc", 11, randF(rng, 60*11, 0.3), randF(rng, 11, 0.3))
			} else {
				m.Dense("fc", 11, randI(rng, 60*11, -3, 3), randI(rng, 11, -9, 9))
			}
		}},
		{"rescale", Shape{4, 4, 3}, func(m *Model, e codec.ElemType) {
			m.Rescale("requant", 3)
		}},
	}

	for _, tc := range cases {
		for _, batch := range []int{1, 3} {
			// Integer configuration: bit-identical.
			mi := NewModel(codec.Int32, tc.in)
			tc.build(mi, codec.Int32)
			xi := randI(rng, batch*tc.in.N(), -40, 40)
			wantI, _, err := mi.Reference(xi, batch)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			resI := runNet(t, dev, mi, batch, xi)
			checkInt32Exact(t, tc.name+"/int32", resI.Output, wantI[len(wantI)-1])

			// Float configuration: codec-tolerance-bounded.
			mf := NewModel(codec.Float32, tc.in)
			tc.build(mf, codec.Float32)
			xf := randF(rng, batch*tc.in.N(), 2)
			wantF, _, err := mf.Reference(xf, batch)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			resF := runNet(t, dev, mf, batch, xf)
			checkFloatClose(t, tc.name+"/float32", resF.Output, wantF[len(wantF)-1], 1.0/(1<<8))
		}
	}
}

func TestSoftmaxDifferential(t *testing.T) {
	dev := openTest(t)
	defer dev.Close()
	rng := rand.New(rand.NewSource(2))
	m := NewModel(codec.Float32, Shape{1, 1, 13}).Softmax("softmax")
	x := randF(rng, 3*13, 6)
	want, _, err := m.Reference(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	res := runNet(t, dev, m, 3, x)
	g, w := res.Output.([]float32), want[0].([]float32)
	for i := range w {
		if d := math.Abs(float64(g[i]) - float64(w[i])); d > 2e-3 {
			t.Fatalf("softmax: element %d: |%g - %g| = %.3g > 2e-3", i, g[i], w[i], d)
		}
	}
}

// TestLeNetFloatPerLayer validates every layer of the float LeNet-scale
// network against refcpu within the codec tolerance budget, and asserts
// the whole chain ran device-resident.
func TestLeNetFloatPerLayer(t *testing.T) {
	dev := openTest(t)
	defer dev.Close()
	m := DemoLeNetFloat32(20160316)
	x := DemoInputFloat32(7, 1)
	want, _, err := m.Reference(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := runNet(t, dev, m, 1, x)
	if res.Stats.HostUploadBytes != 0 || res.Stats.HostReadbackBytes != 0 {
		t.Fatalf("network moved %d/%d host bytes between layers, want 0",
			res.Stats.HostUploadBytes, res.Stats.HostReadbackBytes)
	}
	layers := m.Layers()
	if len(res.Taps) != len(layers) {
		t.Fatalf("%d taps, want %d", len(res.Taps), len(layers))
	}
	for i, l := range layers {
		tol := 1.0 / (1 << 8)
		if l.Kind == KindSoftmax {
			// Probabilities: exp amplifies logit error by |logit|; bound
			// absolutely instead.
			g, w := res.Taps[i].([]float32), want[i].([]float32)
			for j := range w {
				if d := math.Abs(float64(g[j]) - float64(w[j])); d > 2e-3 {
					t.Fatalf("%s: element %d: |%g - %g| = %.3g > 2e-3", l.Name, j, g[j], w[j], d)
				}
			}
			continue
		}
		checkFloatClose(t, l.Name, res.Taps[i], want[i], tol)
	}
}

// TestLeNetIntBitIdentical validates every layer of the integer network
// bit-for-bit: the requantized int path through the GPU is exact.
func TestLeNetIntBitIdentical(t *testing.T) {
	dev := openTest(t)
	defer dev.Close()
	m := DemoLeNetInt32(20160316)
	for _, batch := range []int{1, 2} {
		x := DemoInputInt32(11, batch)
		want, _, err := m.Reference(x, batch)
		if err != nil {
			t.Fatal(err)
		}
		res := runNet(t, dev, m, batch, x)
		for i, l := range m.Layers() {
			checkInt32Exact(t, l.Name, res.Taps[i], want[i])
		}
	}
}

// TestBatchedMatchesSolo pins the batching guarantee the N1 serve sweep
// relies on: a batch-B network produces, for every image, exactly the bits
// a batch-1 network produces — float32 included, because the per-element
// arithmetic is independent of where the batch layout places it.
func TestBatchedMatchesSolo(t *testing.T) {
	dev := openTest(t)
	defer dev.Close()
	const B = 3
	m := DemoLeNetFloat32(20160316)
	xs := DemoInputFloat32(23, B)
	per := DemoShape.N()

	netB, err := m.Build(dev, B, false)
	if err != nil {
		t.Fatal(err)
	}
	defer netB.Close()
	resB, err := netB.Run(xs)
	if err != nil {
		t.Fatal(err)
	}
	batched := resB.Output.([]float32)

	net1, err := m.Build(dev, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer net1.Close()
	for b := 0; b < B; b++ {
		res1, err := net1.Run(xs[b*per : (b+1)*per])
		if err != nil {
			t.Fatal(err)
		}
		solo := res1.Output.([]float32)
		for j := range solo {
			if math.Float32bits(solo[j]) != math.Float32bits(batched[b*DemoClasses+j]) {
				t.Fatalf("image %d class %d: batched %g != solo %g (must be bit-identical)",
					b, j, batched[b*DemoClasses+j], solo[j])
			}
		}
	}
}

// TestLayerTimesCoverChain pins the per-layer time attribution: one entry
// per layer, summing to the whole-chain modeled time. With fusion on
// (the default), a layer fused into its producer's pass (the ReLUs)
// reports zero — its cost is charged to the fused chain's head.
func TestLayerTimesCoverChain(t *testing.T) {
	dev := openTest(t)
	defer dev.Close()
	m := DemoLeNetFloat32(20160316)
	net, err := m.Build(dev, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	res, err := net.Run(DemoInputFloat32(7, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LayerTimes) != len(m.Layers()) {
		t.Fatalf("%d layer times, want %d", len(res.LayerTimes), len(m.Layers()))
	}
	var sum core.Timeline
	for i, lt := range res.LayerTimes {
		kind := m.Layers()[i].Kind
		if kind != KindReLU && kind != KindPool && lt.Execute <= 0 {
			t.Errorf("layer %d (%s): non-positive modeled execute time", i, m.Layers()[i].Name)
		}
		sum = sum.Add(lt)
	}
	if sum != res.Stats.Time {
		t.Fatalf("layer times sum to %+v, chain is %+v", sum, res.Stats.Time)
	}
	// relu1..relu4, pool1, pool2 and the softmax lse scan all merge into
	// neighbouring passes.
	if res.Stats.FusedStages != 7 {
		t.Errorf("FusedStages = %d, want 7", res.Stats.FusedStages)
	}

	// Unfused reference path: every layer keeps its own pass and time.
	net2, err := m.Build(dev, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer net2.Close()
	net2.SetFusion(false)
	res2, err := net2.Run(DemoInputFloat32(7, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i, lt := range res2.LayerTimes {
		if lt.Execute <= 0 {
			t.Errorf("unfused layer %d (%s): non-positive modeled execute time", i, m.Layers()[i].Name)
		}
	}
}

// TestLeNetFusedPassCounts pins the acceptance bar of the fusion planner:
// the float LeNet executes in ≤ 11 fragment passes (actually 8 from 15
// builder stages: ReLUs fuse into their GEMM producers as epilogues,
// non-overlapping pools absorb the fused GEMM chain by inlining, and the
// softmax normalize absorbs the log-sum-exp scan), the integer LeNet in
// ≤ 9 (Rescales fold in too), and the fused passes carry the
// layer-joined labels.
func TestLeNetFusedPassCounts(t *testing.T) {
	dev := openTest(t)
	defer dev.Close()

	mf := DemoLeNetFloat32(20160316)
	netF, err := mf.Build(dev, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer netF.Close()
	passesF, err := netF.PlannedPasses()
	if err != nil {
		t.Fatal(err)
	}
	if len(passesF) > 11 {
		t.Errorf("float LeNet planned %d passes %v, want <= 11", len(passesF), passesF)
	}
	found := false
	for _, l := range passesF {
		if l == "conv1+relu1+pool1" {
			found = true
		}
	}
	if !found {
		t.Errorf("planned passes %v missing fused label conv1+relu1+pool1", passesF)
	}

	mi := DemoLeNetInt32(20160316)
	netI, err := mi.Build(dev, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer netI.Close()
	passesI, err := netI.PlannedPasses()
	if err != nil {
		t.Fatal(err)
	}
	if len(passesI) > 9 {
		t.Errorf("int LeNet planned %d passes %v, want <= 9", len(passesI), passesI)
	}

	// Tapping every layer forces materialization: no cross-layer fusion
	// in tap mode (only the intra-layer softmax lse scan, which is not a
	// tapped layer output, still fuses: 15 stages → 14 passes).
	netT, err := mf.Build(dev, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	defer netT.Close()
	passesT, err := netT.PlannedPasses()
	if err != nil {
		t.Fatal(err)
	}
	if len(passesT) != 14 {
		t.Errorf("tapped float LeNet planned %d passes, want 14 (every layer output materialized)", len(passesT))
	}
}

// TestLeNetIntFusedBitIdentical pins the fusion correctness obligation on
// the real workload: for int32 at one lane and int8 at one and four lanes,
// the fused and the unfused integer networks are both bit-identical to the
// refcpu reference, and fusion runs fewer passes.
func TestLeNetIntFusedBitIdentical(t *testing.T) {
	const batch = 2
	cases := []struct {
		name  string
		m     *Model
		x     interface{}
		lanes int
		equal func(got, want interface{}) bool
	}{
		{"int32/lanes1", DemoLeNetInt32(20160316), DemoInputInt32(11, batch), 1, Int32Equal},
		{"int8/lanes1", DemoLeNetInt8(20160316), DemoInputInt8(11, batch), 1, Int8Equal},
		{"int8/lanes4", DemoLeNetInt8(20160316), DemoInputInt8(11, batch), 4, Int8Equal},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev := openTest(t)
			defer dev.Close()
			refs, _, err := tc.m.Reference(tc.x, batch)
			if err != nil {
				t.Fatal(err)
			}
			run := func(fuse bool) *Result {
				net, err := tc.m.BuildLanes(dev, batch, false, tc.lanes)
				if err != nil {
					t.Fatal(err)
				}
				defer net.Close()
				net.SetFusion(fuse)
				res, err := net.Run(tc.x)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			fused, unfused := run(true), run(false)
			if fused.Stats.Passes >= unfused.Stats.Passes {
				t.Errorf("fused ran %d passes, unfused %d: want fewer fused passes", fused.Stats.Passes, unfused.Stats.Passes)
			}
			if !tc.equal(unfused.Output, refs[len(refs)-1]) {
				t.Error("unfused output not bit-identical to refcpu")
			}
			if !tc.equal(fused.Output, refs[len(refs)-1]) {
				t.Error("fused output not bit-identical to refcpu")
			}
		})
	}
}

// TestModelBuilderErrors pins the deferred-error discipline.
func TestModelBuilderErrors(t *testing.T) {
	dev := openTest(t)
	defer dev.Close()
	cases := []struct {
		name string
		m    *Model
	}{
		{"softmax-on-int", NewModel(codec.Int32, Shape{1, 1, 4}).Softmax("s")},
		{"bad-weight-len", NewModel(codec.Float32, Shape{4, 4, 1}).Conv2D("c", 3, 3, 2, 1, make([]float32, 5), make([]float32, 2))},
		{"wrong-weight-type", NewModel(codec.Float32, Shape{4, 4, 1}).Conv2D("c", 3, 3, 2, 1, make([]int32, 18), make([]int32, 2))},
		{"taps-too-big", NewModel(codec.Float32, Shape{20, 20, 1}).MaxPool("p", 9, 9, 1)},
		{"oversize-window", NewModel(codec.Float32, Shape{4, 4, 1}).MaxPool("p", 5, 5, 1)},
		{"empty", NewModel(codec.Float32, Shape{4, 4, 1})},
	}
	for _, tc := range cases {
		if _, err := tc.m.Build(dev, 1, false); err == nil {
			t.Errorf("%s: Build succeeded, want error", tc.name)
		}
	}
	m := NewModel(codec.Float32, Shape{2, 2, 1}).ReLU("r")
	net, err := m.Build(dev, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(make([]float32, 3)); err == nil {
		t.Error("Run with wrong input length succeeded, want error")
	}
	net.Close()
	if _, err := net.Run(make([]float32, 4)); err == nil {
		t.Error("Run on closed network succeeded, want error")
	}
}
