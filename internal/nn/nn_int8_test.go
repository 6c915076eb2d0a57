package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"glescompute/internal/codec"
	"glescompute/internal/core"
)

// nn_int8_test.go pins the int8 path's acceptance contract: the 4-wide
// vec4 lowering, the scalar lowering and the CPU reference are all
// bit-identical, layer by layer, including channel counts that force C4
// padding; and the vec4 lowering's modeled time beats the scalar one.

func randI8(rng *rand.Rand, n, lo, hi int) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(lo + rng.Intn(hi-lo+1))
	}
	return out
}

// runInt8Lanes builds the model at both lane widths with all layers
// tapped, runs both on one input, and checks every tap against the CPU
// reference — bit-identical in both lowerings.
func runInt8Lanes(t *testing.T, m *Model, batch int, input []int8) {
	t.Helper()
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	dev := openTest(t)
	defer dev.Close()
	want, _, err := m.Reference(input, batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, lanes := range []int{1, 4} {
		net, err := m.BuildLanes(dev, batch, true, lanes)
		if err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		res, err := net.Run(input)
		if err != nil {
			net.Close()
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		for li, info := range m.Layers() {
			if !Int8Equal(res.Taps[li], want[li]) {
				t.Fatalf("lanes=%d layer %s (%s): GPU differs from reference", lanes, info.Name, info.Kind)
			}
		}
		net.Close()
	}
}

// TestInt8SingleLayersDifferential exercises each int8 layer kind in a
// tiny model with channel counts that do NOT divide 4, so the packed
// lowering's padding and stripping are both on the hot path.
func TestInt8SingleLayersDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		name  string
		in    Shape
		build func(m *Model)
	}{
		{"conv-pad", Shape{7, 9, 3}, func(m *Model) {
			m.Conv2D("conv", 3, 3, 5, 1, randI8(rng, 3*3*3*5, -2, 2), randI8(rng, 5, -8, 8)).
				Rescale("rq", 2)
		}},
		{"conv-stride2", Shape{9, 9, 2}, func(m *Model) {
			m.Conv2D("conv", 3, 3, 4, 2, randI8(rng, 3*3*2*4, -2, 2), randI8(rng, 4, -8, 8)).
				Rescale("rq", 2)
		}},
		{"conv-narrow-5x3-stride2", Shape{11, 8, 1}, func(m *Model) {
			m.Conv2D("conv", 5, 3, 6, 2, randI8(rng, 5*3*6, -2, 2), randI8(rng, 6, -8, 8)).
				Rescale("rq", 2)
		}},
		{"conv-8ch", Shape{6, 7, 8}, func(m *Model) {
			m.Conv2D("conv", 3, 3, 6, 1, randI8(rng, 3*3*8*6, -2, 2), randI8(rng, 6, -8, 8)).
				Rescale("rq", 4)
		}},
		{"conv-1x1", Shape{5, 6, 3}, func(m *Model) {
			m.Conv2D("conv", 1, 1, 7, 1, randI8(rng, 3*7, -2, 2), randI8(rng, 7, -8, 8)).
				Rescale("rq", 1)
		}},
		{"dwconv-pad", Shape{8, 6, 3}, func(m *Model) {
			m.DepthwiseConv("dw", 3, 3, 1, randI8(rng, 9*3, -2, 2), randI8(rng, 3, -8, 8)).
				Rescale("rq", 1)
		}},
		{"pool-pad", Shape{6, 6, 3}, func(m *Model) {
			m.MaxPool("pool", 2, 2, 2)
		}},
		{"pool-overlap", Shape{7, 7, 5}, func(m *Model) {
			m.MaxPool("pool", 3, 3, 2)
		}},
		{"relu", Shape{5, 5, 6}, func(m *Model) {
			m.ReLU("relu")
		}},
		{"dense-pad", Shape{5, 5, 3}, func(m *Model) {
			m.Dense("fc", 7, randI8(rng, 75*7, -2, 2), randI8(rng, 7, -8, 8)).
				Rescale("rq", 4)
		}},
		{"conv-relu-dense", Shape{8, 8, 3}, func(m *Model) {
			m.Conv2D("conv", 3, 3, 5, 1, randI8(rng, 27*5, -2, 2), randI8(rng, 5, -8, 8)).
				Rescale("rq1", 3).
				ReLU("relu").
				MaxPool("pool", 2, 2, 2).
				Dense("fc", 9, randI8(rng, 3*3*5*9, -2, 2), randI8(rng, 9, -8, 8)).
				Rescale("rq2", 5)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewModel(codec.Int8, tc.in)
			tc.build(m)
			const batch = 3
			runInt8Lanes(t, m, batch, randI8(rng, batch*tc.in.N(), -8, 7))
		})
	}
}

// TestInt8LeNetDifferential is the whole-network differential on the
// demo model: "demo" is the seed the N1 experiment reports, "live" the
// seed glesbench serves. Every layer of both is live
// (TestDemoNetworksLive), so a wrong fetch in any layer shows; at batch
// 4 conv1's input spans two texture rows, so its activation walk must
// wrap.
func TestInt8LeNetDifferential(t *testing.T) {
	const batch = 4
	for _, tc := range []struct {
		name  string
		m     *Model
		input []int8
	}{
		{"demo", DemoLeNetInt8(7), DemoInputInt8(8, batch)},
		{"live", DemoLeNetInt8(20160316), DemoInputInt8(11, batch)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runInt8Lanes(t, tc.m, batch, tc.input)
		})
	}
}

// TestInt8MobileNetDifferential is the whole-network differential on the
// depthwise-separable measurement network.
func TestInt8MobileNetDifferential(t *testing.T) {
	runInt8Lanes(t, DemoMobileNetInt8(17), 2, DemoInputMobileNet(9, 2))
}

// TestDemoNetworksLive guards the demo int8 networks' requant shifts: over
// each seeded batch-8 input, every layer of Model.Reference has at least
// 10% nonzero outputs and at least 8 distinct values. A layer that
// computes on zeros hides a wrong fetch from every check downstream of it.
func TestDemoNetworksLive(t *testing.T) {
	const batch = 8
	dw := smallDWDenseInt8()
	for _, tc := range []struct {
		name  string
		m     *Model
		input []int8
	}{
		{"lenet-7", DemoLeNetInt8(7), DemoInputInt8(8, batch)},
		{"lenet-20160316", DemoLeNetInt8(20160316), DemoInputInt8(11, batch)},
		{"mobilenet", DemoMobileNetInt8(17), DemoInputMobileNet(9, batch)},
		{"dw-dense", dw, randI8(rand.New(rand.NewSource(6)), batch*dw.In().N(), -8, 7)},
	} {
		taps, _, err := tc.m.Reference(tc.input, batch)
		if err != nil {
			t.Fatal(err)
		}
		for li, info := range tc.m.Layers() {
			tap := taps[li].([]int8)
			nonzero, distinct := 0, map[int8]bool{}
			for _, v := range tap {
				if v != 0 {
					nonzero++
				}
				distinct[v] = true
			}
			if pct := 100 * float64(nonzero) / float64(len(tap)); pct < 10 || len(distinct) < 8 {
				t.Errorf("%s layer %s: %.1f%% nonzero, %d distinct values; want >= 10%% and >= 8",
					tc.name, info.Name, pct, len(distinct))
			}
		}
	}
}

// TestInt8FoldValidation pins the folding contract's error paths.
func TestInt8FoldValidation(t *testing.T) {
	dev := openTest(t)
	defer dev.Close()
	rng := rand.New(rand.NewSource(3))

	// Matmul without a following Rescale.
	m := NewModel(codec.Int8, Shape{4, 4, 2}).
		Conv2D("conv", 3, 3, 4, 1, randI8(rng, 9*2*4, -2, 2), randI8(rng, 4, -8, 8))
	if _, err := m.Build(dev, 1, false); err == nil {
		t.Error("conv without Rescale built, want error")
	}

	// Rescale not after a matmul.
	m = NewModel(codec.Int8, Shape{4, 4, 2}).
		ReLU("relu").
		Rescale("rq", 2)
	if _, err := m.Build(dev, 1, false); err == nil {
		t.Error("free-standing Rescale built, want error")
	}

	// 4-wide lowering rejected for non-int8 models.
	mf := DemoLeNetFloat32(1)
	if _, err := mf.BuildLanes(dev, 1, false, 4); err == nil {
		t.Error("4-wide float32 build succeeded, want error")
	}
}

// TestInt8Vec4ModeledSpeedup asserts the tentpole's performance claim at
// the library level: the vec4 lowering's modeled whole-network time is
// at least 2x faster than the scalar int8 lowering (the N1 experiment
// gates the same ratio in CI).
func TestInt8Vec4ModeledSpeedup(t *testing.T) {
	dev := openTest(t)
	defer dev.Close()
	m := DemoLeNetInt8(7)
	input := DemoInputInt8(8, 4)
	times := map[int]float64{}
	for _, lanes := range []int{1, 4} {
		net, err := m.BuildLanes(dev, 4, false, lanes)
		if err != nil {
			t.Fatal(err)
		}
		res, err := net.Run(input)
		if err != nil {
			net.Close()
			t.Fatal(err)
		}
		times[lanes] = res.Stats.Time.Total().Seconds()
		net.Close()
	}
	speedup := times[1] / times[4]
	t.Logf("modeled net time: scalar %.1fµs, vec4 %.1fµs, speedup %.2fx",
		times[1]*1e6, times[4]*1e6, speedup)
	if speedup < 2 {
		t.Fatalf("vec4 modeled speedup %.2fx, want >= 2x", speedup)
	}
}

// TestInt8WalkRowCrossing is the row-crossing differential of the 4-wide
// kernels' texel walks (DESIGN.md §6c): narrow grids make every weight run
// and every conv row wrap across texture rows many times, at widths that
// are and are not powers of two (12: 1/W is inexact), and the outputs must
// stay bit-identical to the CPU reference at every batch, fused and not.
// A 4-image network also runs every shorter row prefix, k = 1..3, whose
// rows wrap where a batch-k grid's would not. A walk that drops one
// stream's row wrap fails it.
func TestInt8WalkRowCrossing(t *testing.T) {
	nets := []struct {
		name    string
		m       *Model
		input   func(batch int) []int8
		batches []int
	}{
		{"lenet", DemoLeNetInt8(7), func(b int) []int8 { return DemoInputInt8(8, b) }, []int{1, 4, 8}},
		{"mobilenet", DemoMobileNetInt8(17), func(b int) []int8 { return DemoInputMobileNet(9, b) }, []int{1, 4, 8}},
	}
	const prefixB = 4
	type run struct {
		k     int
		input []int8
		want  interface{}
	}
	// runs[i][j]: the runs of nets[i] built at batches[j], each k images.
	runs := make([][][]run, len(nets))
	for i, n := range nets {
		for _, batch := range n.batches {
			input := n.input(batch)
			var rs []run
			for k := 1; k <= batch; k++ {
				if k < batch && batch != prefixB {
					continue
				}
				in := input[:len(input)/batch*k]
				want, _, err := n.m.Reference(in, k)
				if err != nil {
					t.Fatal(err)
				}
				rs = append(rs, run{k, in, want[len(want)-1]})
			}
			runs[i] = append(runs[i], rs)
		}
	}
	for _, maxW := range []int{8, 12, 16, 0} {
		dev, err := core.Open(core.Config{MaxGridWidth: maxW})
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range nets {
			soloFrags := map[bool]string{} // fused -> a batch-1 network's fragments per pass
			for j, batch := range n.batches {
				for _, fused := range []bool{true, false} {
					net, err := n.m.Build(dev, batch, false)
					if err != nil {
						t.Fatal(err)
					}
					net.SetFusion(fused)
					for _, r := range runs[i][j] {
						res, frags := runPasses(t, dev, net, r.input)
						if !Int8Equal(res.Output, r.want) {
							t.Errorf("%s w%d b%d k%d fused=%v: output differs from the reference", n.name, maxW, batch, r.k, fused)
						}
						if r.k > 1 {
							continue
						}
						if batch == 1 {
							soloFrags[fused] = fmt.Sprint(frags)
						} else if got := fmt.Sprint(frags); got != soloFrags[fused] {
							t.Errorf("%s w%d b%d k1 fused=%v: fragments per pass %s, a batch-1 network shades %s",
								n.name, maxW, batch, fused, got, soloFrags[fused])
						}
					}
					net.Close()
				}
			}
		}
		dev.Close()
	}
}

// BenchmarkLeNetInt8Warm times one warm int8-vec4 LeNet b1 request with a
// single raster worker: the served path's compiled kernels, VM, sampler and
// codec, without scheduling or helper goroutines. A quick local A/B for
// compiler and VM changes.
func BenchmarkLeNetInt8Warm(b *testing.B) {
	b.Setenv(core.EnvCompileCache, "")
	dev, err := core.Open(core.Config{RasterWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer dev.Close()
	net, err := DemoLeNetInt8(7).BuildLanes(dev, 1, false, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()
	input := DemoInputInt8(8, 1)
	if _, err := net.Run(input); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Run(input); err != nil {
			b.Fatal(err)
		}
	}
}
