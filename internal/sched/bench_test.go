package sched

import (
	"testing"

	"glescompute/internal/codec"
	"glescompute/internal/core"
)

// benchSum is the tiny int32 request the serving benchmarks stream.
var benchSum = core.KernelSpec{
	Name:    "sum",
	Inputs:  []core.Param{{Name: "a", Type: codec.Int32}, {Name: "b", Type: codec.Int32}},
	Outputs: []core.OutputSpec{{Name: "out", Type: codec.Int32}},
	Source:  `float gc_kernel(float idx) { return gc_a(idx) + gc_b(idx); }`,
}

func benchQueue(b *testing.B, maxBatch int) {
	q, err := OpenQueue(Config{
		Devices: 1, MaxBatch: maxBatch,
		Device: core.Config{RasterWorkers: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer q.Close()
	x := make([]int32, 16)
	y := make([]int32, 16)
	for i := range x {
		x[i] = int32(i)
		y[i] = int32(i * 3)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Submit(nil, JobSpec{Kernel: benchSum, In: []Input{Int32s(x), Int32s(y)}, Batchable: true}); err != nil {
			b.Fatal(err)
		}
	}
	q.Drain()
}

// BenchmarkQueueTinyJobsSolo prices the per-request cost without
// coalescing; BenchmarkQueueTinyJobsBatched shows what request batching
// recovers (per-launch overhead amortized across up to 32 jobs).
func BenchmarkQueueTinyJobsSolo(b *testing.B)    { benchQueue(b, 1) }
func BenchmarkQueueTinyJobsBatched(b *testing.B) { benchQueue(b, 32) }
