package nn

import (
	"bytes"
	"fmt"
	"testing"

	"glescompute/internal/core"
	"glescompute/internal/gles"
)

// poisonTails fills the tail texels of every buffer — those at or past
// Elem().TexelsFor(Len()), which no pass writes — with 0xFF bytes through
// the raw GL context.
func poisonTails(t *testing.T, dev *core.Device, bufs ...*core.Buffer) {
	t.Helper()
	ctx := dev.GL()
	prev := uint32(ctx.GetIntegerv(gles.TEXTURE_BINDING_2D)[0])
	for _, b := range bufs {
		g := b.Grid()
		ctx.BindTexture(gles.TEXTURE_2D, b.Texture())
		for i := b.Elem().TexelsFor(b.Len()); i < g.Texels(); {
			x, y := g.Coord(i)
			w := g.Width - x
			ctx.TexSubImage2D(gles.TEXTURE_2D, 0, x, y, w, 1, gles.RGBA, gles.UNSIGNED_BYTE, bytes.Repeat([]byte{0xFF}, 4*w))
			i += w
		}
	}
	ctx.BindTexture(gles.TEXTURE_2D, prev)
	if e := ctx.GetError(); e != gles.NO_ERROR {
		t.Fatalf("poisoning tails: GL error 0x%04x", e)
	}
}

// TestPoisonedTailsLeNet proves no LeNet pass reads a texel past its
// input's live count. Between a warm run and a checked run, the tails of
// every weight buffer, the image and output buffers, and every pooled
// intermediate are filled with 0xFF bytes; the checked run must stay
// bit-identical to the clean run, tap by tap, and (integer paths) to
// Model.Reference.
func TestPoisonedTailsLeNet(t *testing.T) {
	const batch = 1
	cases := []struct {
		name  string
		m     *Model
		x     interface{}
		lanes int
	}{
		{"float32", DemoLeNetFloat32(20160316), DemoInputFloat32(7, batch), 1},
		{"int32", DemoLeNetInt32(20160316), DemoInputInt32(11, batch), 1},
		{"int8/lanes1", DemoLeNetInt8(7), DemoInputInt8(8, batch), 1},
		{"int8/lanes4", DemoLeNetInt8(7), DemoInputInt8(8, batch), 4},
	}
	dev := openTest(t)
	defer dev.Close()
	for _, tc := range cases {
		want, _, err := tc.m.Reference(tc.x, batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, tapAll := range []bool{false, true} {
			name := fmt.Sprintf("%s/tapAll=%v", tc.name, tapAll)
			net, err := tc.m.BuildLanes(dev, batch, tapAll, tc.lanes)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			run := func() []interface{} {
				res, err := net.Run(tc.x)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if tapAll {
					return res.Taps
				}
				return []interface{}{res.Output}
			}
			clean := run()
			bufs := append([]*core.Buffer{net.imgBuf}, net.weightBufs...)
			bufs = append(bufs, net.outBufs...)
			poisonTails(t, dev, append(bufs, net.p.Intermediates()...)...)
			got := run()
			for i := range clean {
				if hashTap(t, got[i]) != hashTap(t, clean[i]) {
					t.Errorf("%s: tap %d changed after the tails were poisoned", name, i)
				}
				ref := want[len(want)-len(clean)+i]
				if _, float := ref.([]float32); !float && hashTap(t, got[i]) != hashTap(t, ref) {
					t.Errorf("%s: tap %d differs from Model.Reference", name, i)
				}
			}
			net.Close()
		}
	}
}
