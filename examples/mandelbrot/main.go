// Command mandelbrot renders the Mandelbrot set with a compute kernel
// that has no input buffers at all — the work is derived entirely from the
// output index, showing that kernels are not tied to texture inputs. The
// escape count is written through the uint8 codec, displayed as ASCII and
// checked exactly against the same computation on the host; a mismatch
// exits with status 1.
package main

import (
	"fmt"
	"log"

	"glescompute"
)

const mandelSrc = `
float gc_kernel(float idx) {
	float w = gc_out_dims.x;
	float row = floor((idx + 0.5) / w);
	float col = idx - row * w;
	// Map the grid to the complex rectangle [-2.2, 0.8] x [-1.2, 1.2].
	float cr = -2.2 + 3.0 * (col + 0.5) / w;
	float ci = -1.2 + 2.4 * (row + 0.5) / gc_out_dims.y;
	float zr = 0.0;
	float zi = 0.0;
	float it = 0.0;
	for (float i = 0.0; i < 96.0; i += 1.0) {
		float nzr = zr * zr - zi * zi + cr;
		zi = 2.0 * zr * zi + ci;
		zr = nzr;
		if (zr * zr + zi * zi > 4.0) { break; }
		it = i;
	}
	return floor(it * 255.0 / 95.0);
}
`

func main() {
	const w, h = 96, 48
	dev, err := glescompute.Open(glescompute.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer dev.Close()

	out, err := dev.NewMatrixBuffer(glescompute.Uint8, w)
	if err != nil {
		log.Fatal(err)
	}
	_ = h // the buffer grid is w×w; we render the top h rows

	k, err := dev.BuildKernel(glescompute.KernelSpec{
		Name:    "mandelbrot",
		Outputs: []glescompute.OutputSpec{{Name: "out", Type: glescompute.Uint8}},
		Source:  mandelSrc,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := k.Run1(out, nil, nil); err != nil {
		log.Fatal(err)
	}
	img, err := out.ReadUint8()
	if err != nil {
		log.Fatal(err)
	}

	shades := []byte(" .:-=+*#%@")
	for y := 0; y < w; y += 2 { // halve vertical resolution for terminal aspect
		line := make([]byte, w)
		for x := 0; x < w; x++ {
			v := int(img[y*w+x])
			line[x] = shades[v*(len(shades)-1)/255]
		}
		fmt.Println(string(line))
	}
	tl := dev.Timeline()
	fmt.Printf("rendered %dx%d, 96 iterations max; modeled GPU execute time %v\n", w, w, tl.Execute)
	bad := 0
	for i, v := range img {
		if v != mandelCPU(i, w) {
			bad++
		}
	}
	fmt.Printf("mismatches vs the CPU float32 reference: %d (exact)\n", bad)
	if bad > 0 {
		log.Fatal("validation failed")
	}
	fmt.Println("OK")
}

// mandelCPU is mandelSrc evaluated on the host in float32, operation for
// operation, for the output texel idx of a w×w grid.
func mandelCPU(idx, w int) uint8 {
	fw := float32(w)
	row := float32(idx / w)
	col := float32(idx % w)
	cr := -2.2 + 3.0*(col+0.5)/fw
	ci := -1.2 + 2.4*(row+0.5)/fw
	var zr, zi, it float32
	for i := float32(0); i < 96; i++ {
		// The conversions round each product, as the shader does, so no
		// platform fuses it into a multiply-add.
		nzr := float32(zr*zr) - float32(zi*zi) + cr
		zi = float32(2*zr*zi) + ci
		zr = nzr
		if float32(zr*zr)+float32(zi*zi) > 4 {
			break
		}
		it = i
	}
	return uint8(it * 255 / 95)
}
