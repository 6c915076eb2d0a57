package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"glescompute/internal/codec"
)

// corpusEntry is one kernel of the concurrent differential corpus: run it
// on a device, return the raw output bits.
type corpusEntry struct {
	name string
	run  func(dev *Device) ([]uint32, error)
}

// concurrencyCorpus covers every element type, 2D matrix addressing and a
// multi-pass pipeline — the code paths that would surface hidden shared
// state between supposedly independent devices.
func concurrencyCorpus() []corpusEntry {
	rng := rand.New(rand.NewSource(20260730))
	const n = 512
	af := make([]float32, n)
	bf := make([]float32, n)
	ai := make([]int32, n)
	bi := make([]int32, n)
	au := make([]uint32, n)
	ab := make([]uint8, n)
	for i := 0; i < n; i++ {
		af[i] = rng.Float32()*64 - 32
		bf[i] = rng.Float32()*64 - 32
		ai[i] = int32(rng.Intn(1<<21) - 1<<20)
		bi[i] = int32(rng.Intn(1<<21) - 1<<20)
		au[i] = uint32(rng.Intn(1 << 23))
		ab[i] = uint8(rng.Intn(256))
	}
	const mn = 16
	am := make([]float32, mn*mn)
	bm := make([]float32, mn*mn)
	for i := range am {
		am[i] = rng.Float32()
		bm[i] = rng.Float32()
	}

	f32bits := func(v []float32) []uint32 {
		out := make([]uint32, len(v))
		for i, x := range v {
			out[i] = math.Float32bits(x)
		}
		return out
	}
	i32bits := func(v []int32) []uint32 {
		out := make([]uint32, len(v))
		for i, x := range v {
			out[i] = uint32(x)
		}
		return out
	}

	elementwise := func(spec KernelSpec, writeA, writeB func(a, b *Buffer) error, elem codec.ElemType, read func(o *Buffer) ([]uint32, error)) func(*Device) ([]uint32, error) {
		return func(dev *Device) ([]uint32, error) {
			ba, err := dev.NewBuffer(elem, n)
			if err != nil {
				return nil, err
			}
			bb, err := dev.NewBuffer(elem, n)
			if err != nil {
				return nil, err
			}
			bo, err := dev.NewBuffer(elem, n)
			if err != nil {
				return nil, err
			}
			k, err := dev.BuildKernel(spec)
			if err != nil {
				return nil, err
			}
			if err := writeA(ba, bb); err != nil {
				return nil, err
			}
			if err := writeB(ba, bb); err != nil {
				return nil, err
			}
			if _, err := k.Run1(bo, []*Buffer{ba, bb}, nil); err != nil {
				return nil, err
			}
			return read(bo)
		}
	}

	sumF := KernelSpec{
		Name:   "sum",
		Inputs: []Param{{Name: "a", Type: codec.Float32}, {Name: "b", Type: codec.Float32}},
		Source: `float gc_kernel(float idx) { return gc_a(idx) + gc_b(idx); }`,
	}
	sumI := KernelSpec{
		Name:    "sumi",
		Inputs:  []Param{{Name: "a", Type: codec.Int32}, {Name: "b", Type: codec.Int32}},
		Outputs: []OutputSpec{{Name: "out", Type: codec.Int32}},
		Source:  `float gc_kernel(float idx) { return gc_a(idx) + gc_b(idx); }`,
	}

	return []corpusEntry{
		{"sum-f32", elementwise(sumF,
			func(a, b *Buffer) error { return a.WriteFloat32(af) },
			func(a, b *Buffer) error { return b.WriteFloat32(bf) },
			codec.Float32,
			func(o *Buffer) ([]uint32, error) {
				v, err := o.ReadFloat32()
				if err != nil {
					return nil, err
				}
				return f32bits(v), nil
			})},
		{"sum-i32", elementwise(sumI,
			func(a, b *Buffer) error { return a.WriteInt32(ai) },
			func(a, b *Buffer) error { return b.WriteInt32(bi) },
			codec.Int32,
			func(o *Buffer) ([]uint32, error) {
				v, err := o.ReadInt32()
				if err != nil {
					return nil, err
				}
				return i32bits(v), nil
			})},
		{"saxpy-u32-u8", func(dev *Device) ([]uint32, error) {
			bu, err := dev.NewBuffer(codec.Uint32, n)
			if err != nil {
				return nil, err
			}
			bb, err := dev.NewBuffer(codec.Uint8, n)
			if err != nil {
				return nil, err
			}
			bo, err := dev.NewBuffer(codec.Uint32, n)
			if err != nil {
				return nil, err
			}
			k, err := dev.BuildKernel(KernelSpec{
				Name:    "saxpy",
				Inputs:  []Param{{Name: "x", Type: codec.Uint32}, {Name: "y", Type: codec.Uint8}},
				Outputs: []OutputSpec{{Name: "out", Type: codec.Uint32}},
				Source:  `float gc_kernel(float idx) { return gc_x(idx) + 3.0 * gc_y(idx); }`,
			})
			if err != nil {
				return nil, err
			}
			if err := bu.WriteUint32(au); err != nil {
				return nil, err
			}
			if err := bb.WriteUint8(ab); err != nil {
				return nil, err
			}
			if _, err := k.Run1(bo, []*Buffer{bu, bb}, nil); err != nil {
				return nil, err
			}
			v, err := bo.ReadUint32()
			if err != nil {
				return nil, err
			}
			return v, nil
		}},
		{"sgemm-f32", func(dev *Device) ([]uint32, error) {
			ba, err := dev.NewMatrixBuffer(codec.Float32, mn)
			if err != nil {
				return nil, err
			}
			bb, err := dev.NewMatrixBuffer(codec.Float32, mn)
			if err != nil {
				return nil, err
			}
			bo, err := dev.NewMatrixBuffer(codec.Float32, mn)
			if err != nil {
				return nil, err
			}
			k, err := dev.BuildKernel(KernelSpec{
				Name:     "sgemm",
				Inputs:   []Param{{Name: "a", Type: codec.Float32}, {Name: "b", Type: codec.Float32}},
				Uniforms: []string{"u_n"},
				Source: `float gc_kernel(float idx) {
	float row = floor((idx + 0.5) / u_n);
	float col = idx - row * u_n;
	float acc = 0.0;
	for (float k = 0.0; k < 64.0; k += 1.0) {
		if (k >= u_n) { break; }
		acc += gc_a_at(k, row) * gc_b_at(col, k);
	}
	return acc;
}`,
			})
			if err != nil {
				return nil, err
			}
			if err := ba.WriteFloat32(am); err != nil {
				return nil, err
			}
			if err := bb.WriteFloat32(bm); err != nil {
				return nil, err
			}
			if _, err := k.Run1(bo, []*Buffer{ba, bb}, map[string]float32{"u_n": mn}); err != nil {
				return nil, err
			}
			v, err := bo.ReadFloat32()
			if err != nil {
				return nil, err
			}
			return f32bits(v), nil
		}},
		{"reduce-pipeline", func(dev *Device) ([]uint32, error) {
			p := dev.NewPipeline()
			defer p.Close()
			p.Output(p.Reduce(p.Input(codec.Float32, n), ReduceAdd))
			if err := p.Err(); err != nil {
				return nil, err
			}
			in, err := dev.NewBuffer(codec.Float32, n)
			if err != nil {
				return nil, err
			}
			out, err := dev.NewBuffer(codec.Float32, 1)
			if err != nil {
				return nil, err
			}
			if err := in.WriteFloat32(af); err != nil {
				return nil, err
			}
			if _, err := p.Run([]*Buffer{out}, []*Buffer{in}, nil); err != nil {
				return nil, err
			}
			v, err := out.ReadFloat32()
			if err != nil {
				return nil, err
			}
			return f32bits(v), nil
		}},
	}
}

// TestConcurrentIndependentDevices runs the differential corpus on many
// independent devices at once and demands bit-identical outputs from all
// of them. Before the scheduler, nothing proved two core.Devices share no
// hidden package-level state; under -race this also proves memory safety
// of the one-device-per-goroutine regime the queue relies on.
func TestConcurrentIndependentDevices(t *testing.T) {
	corpus := concurrencyCorpus()

	// Reference bits, computed on one device up front.
	ref := make(map[string][]uint32)
	refDev, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range corpus {
		bits, err := e.run(refDev)
		if err != nil {
			t.Fatalf("reference %s: %v", e.name, err)
		}
		ref[e.name] = bits
	}
	refDev.Close()

	const goroutines = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(corpus))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dev, err := Open(Config{RasterWorkers: 1})
			if err != nil {
				errs <- err
				return
			}
			defer dev.Close()
			// Interleave entries differently per goroutine so devices are
			// always running different kernels simultaneously.
			for i := 0; i < len(corpus); i++ {
				e := corpus[(i+g)%len(corpus)]
				bits, err := e.run(dev)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d, %s: %w", g, e.name, err)
					return
				}
				want := ref[e.name]
				if len(bits) != len(want) {
					errs <- fmt.Errorf("goroutine %d, %s: %d outputs, want %d", g, e.name, len(bits), len(want))
					return
				}
				for k := range want {
					if bits[k] != want[k] {
						errs <- fmt.Errorf("goroutine %d, %s: output %d = %08x, want %08x (devices share state?)",
							g, e.name, k, bits[k], want[k])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentTiledDevices is the parallel-rasterizer variant of the
// test above: every device runs its fragment stage on a 4-worker tile
// pool, so each draw spawns goroutines of its own while many devices draw
// at once. Under -race this proves the per-worker executor/rasterizer
// instances share nothing — across tiles within a draw, and across
// devices. Outputs must still match the sequential reference bit for bit.
func TestConcurrentTiledDevices(t *testing.T) {
	corpus := concurrencyCorpus()

	ref := make(map[string][]uint32)
	refCfg := Config{}
	refCfg.RasterWorkers = 1
	refDev, err := Open(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range corpus {
		bits, err := e.run(refDev)
		if err != nil {
			t.Fatalf("reference %s: %v", e.name, err)
		}
		ref[e.name] = bits
	}
	refDev.Close()

	const goroutines = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(corpus))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := Config{}
			// At 4 workers a draw shrinks its tiles until it has at
			// least 16 (or 1px tiles), even on the small textures these
			// kernels render to.
			cfg.RasterWorkers = 4
			dev, err := Open(cfg)
			if err != nil {
				errs <- err
				return
			}
			defer dev.Close()
			for i := 0; i < len(corpus); i++ {
				e := corpus[(i+g)%len(corpus)]
				bits, err := e.run(dev)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d, %s: %w", g, e.name, err)
					return
				}
				want := ref[e.name]
				for k := range want {
					if bits[k] != want[k] {
						errs <- fmt.Errorf("goroutine %d, %s: output %d = %08x, want %08x (tiled draw diverged)",
							g, e.name, k, bits[k], want[k])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
