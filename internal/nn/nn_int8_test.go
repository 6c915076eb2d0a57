package nn

import (
	"math/rand"
	"testing"

	"glescompute/internal/codec"
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
// demo model — the configuration the N1 experiment reports.
func TestInt8LeNetDifferential(t *testing.T) {
	m := DemoLeNetInt8(7)
	runInt8Lanes(t, m, 2, DemoInputInt8(8, 2))
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
