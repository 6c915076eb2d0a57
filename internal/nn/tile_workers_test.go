package nn

import (
	"testing"

	"glescompute/internal/core"
)

// TestLeNetTiledWorkersBitIdentical runs the fused int8 LeNet — the
// heaviest real workload in the repo, whose mega-kernels are exactly what
// the specialized VM dispatch and tiled rasterizer exist for — once per
// rasterizer worker count, and requires every layer tap and the final
// output bit-identical to the sequential (workers=1) build. Every pass
// shades 3 to 288 fragments; a draw shrinks its tiles until it has 4 per
// worker (gles TestSmallDrawShardsAcrossWorkers pins that), so at 2, 4
// and 8 workers each pass really is split across goroutines. The model's
// fragment passes cover conv/pool/dense/rescale codecs, fusion epilogues
// and the vec4 int8 packing, so a tile-boundary bug anywhere in that
// pipeline fails here even if the synthetic corpus scenes miss it.
func TestLeNetTiledWorkersBitIdentical(t *testing.T) {
	m := DemoLeNetInt8(7)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	const batch = 2
	input := DemoInputInt8(8, batch)

	var ref []interface{}
	for _, workers := range []int{1, 2, 4, 8} {
		dev, err := core.Open(core.Config{RasterWorkers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		net, err := m.Build(dev, batch, true)
		if err != nil {
			dev.Close()
			t.Fatalf("workers=%d: %v", workers, err)
		}
		res, err := net.Run(input)
		net.Close()
		dev.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 {
			ref = res.Taps
			continue
		}
		for li, info := range m.Layers() {
			if !Int8Equal(res.Taps[li].([]int8), ref[li].([]int8)) {
				t.Errorf("workers=%d layer %s (%s): differs from sequential build",
					workers, info.Name, info.Kind)
			}
		}
	}
}
