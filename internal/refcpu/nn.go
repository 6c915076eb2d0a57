package refcpu

import (
	"math"

	"glescompute/internal/armtime"
)

// Neural-network layer references (the CPU baselines of experiment N1).
//
// Tensors are row-major [batch][height][width][channel] ("batch-HWC"), the
// layout internal/nn uses on the device, so the GPU and CPU sides index
// identically. Convolutions are "valid" (no padding). Weight layouts match
// the device kernels exactly:
//
//	Conv2D:        w[((ky*KW+kx)*InC + ic)*OutC + oc], bias[oc]
//	DepthwiseConv: w[(ky*KW+kx)*C + c],                bias[c]
//	Dense:         w[i*Out + o],                       bias[o]
//
// Accumulation visits taps in the same index order as the GPU kernels, so
// float comparisons fight only codec quantization, never summation order.

// ConvShape describes one 2D convolution: InH×InW×InC input, KH×KW taps,
// OutC output channels, stride Stride (valid padding).
type ConvShape struct {
	InH, InW, InC int
	KH, KW        int
	OutC          int
	Stride        int
}

// OutH returns the output height.
func (s ConvShape) OutH() int { return (s.InH-s.KH)/s.Stride + 1 }

// OutW returns the output width.
func (s ConvShape) OutW() int { return (s.InW-s.KW)/s.Stride + 1 }

// K returns the receptive-field size KH·KW·InC.
func (s ConvShape) K() int { return s.KH * s.KW * s.InC }

// Conv2DFloat32 computes a valid 2D convolution over batch images.
func Conv2DFloat32(x, w, bias []float32, batch int, s ConvShape) ([]float32, armtime.OpCounts) {
	oh, ow, k := s.OutH(), s.OutW(), s.K()
	out := make([]float32, batch*oh*ow*s.OutC)
	for b := 0; b < batch; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for oc := 0; oc < s.OutC; oc++ {
					acc := bias[oc]
					for ky := 0; ky < s.KH; ky++ {
						for kx := 0; kx < s.KW; kx++ {
							for ic := 0; ic < s.InC; ic++ {
								xi := ((b*s.InH+oy*s.Stride+ky)*s.InW + ox*s.Stride + kx) * s.InC
								wi := ((ky*s.KW+kx)*s.InC + ic) * s.OutC
								acc += x[xi+ic] * w[wi+oc]
							}
						}
					}
					out[((b*oh+oy)*ow+ox)*s.OutC+oc] = acc
				}
			}
		}
	}
	return out, convCounts(uint64(batch)*uint64(oh)*uint64(ow)*uint64(s.OutC), uint64(k), true)
}

// Conv2DInt32 is the integer configuration of Conv2DFloat32. All partial
// sums must stay within ±2^24 for the GPU path to be bit-identical.
func Conv2DInt32(x, w, bias []int32, batch int, s ConvShape) ([]int32, armtime.OpCounts) {
	oh, ow, k := s.OutH(), s.OutW(), s.K()
	out := make([]int32, batch*oh*ow*s.OutC)
	for b := 0; b < batch; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for oc := 0; oc < s.OutC; oc++ {
					acc := bias[oc]
					for ky := 0; ky < s.KH; ky++ {
						for kx := 0; kx < s.KW; kx++ {
							for ic := 0; ic < s.InC; ic++ {
								xi := ((b*s.InH+oy*s.Stride+ky)*s.InW + ox*s.Stride + kx) * s.InC
								wi := ((ky*s.KW+kx)*s.InC + ic) * s.OutC
								acc += x[xi+ic] * w[wi+oc]
							}
						}
					}
					out[((b*oh+oy)*ow+ox)*s.OutC+oc] = acc
				}
			}
		}
	}
	return out, convCounts(uint64(batch)*uint64(oh)*uint64(ow)*uint64(s.OutC), uint64(k), false)
}

// convCounts prices outN output elements of K taps each.
func convCounts(outN, k uint64, fp bool) armtime.OpCounts {
	c := armtime.OpCounts{
		IntAdd:       outN * (4*k + 2), // addressing
		Load:         outN * (2*k + 1),
		Store:        outN,
		Branch:       outN * (k + 1),
		BytesTouched: outN * (2*k + 2) * 4,
	}
	if fp {
		c.FpAdd, c.FpMul = outN*k, outN*k
	} else {
		c.IntAdd += outN * k
		c.IntMul = outN * k
	}
	return c
}

// DWShape describes a depthwise convolution (channel multiplier 1): each
// channel is convolved with its own KH×KW filter.
type DWShape struct {
	InH, InW, C int
	KH, KW      int
	Stride      int
}

// OutH returns the output height.
func (s DWShape) OutH() int { return (s.InH-s.KH)/s.Stride + 1 }

// OutW returns the output width.
func (s DWShape) OutW() int { return (s.InW-s.KW)/s.Stride + 1 }

// DepthwiseConvFloat32 computes a valid depthwise convolution.
func DepthwiseConvFloat32(x, w, bias []float32, batch int, s DWShape) ([]float32, armtime.OpCounts) {
	oh, ow := s.OutH(), s.OutW()
	out := make([]float32, batch*oh*ow*s.C)
	for b := 0; b < batch; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for c := 0; c < s.C; c++ {
					acc := bias[c]
					for ky := 0; ky < s.KH; ky++ {
						for kx := 0; kx < s.KW; kx++ {
							xi := ((b*s.InH+oy*s.Stride+ky)*s.InW + ox*s.Stride + kx) * s.C
							acc += x[xi+c] * w[(ky*s.KW+kx)*s.C+c]
						}
					}
					out[((b*oh+oy)*ow+ox)*s.C+c] = acc
				}
			}
		}
	}
	return out, convCounts(uint64(batch)*uint64(oh)*uint64(ow)*uint64(s.C), uint64(s.KH*s.KW), true)
}

// DepthwiseConvInt32 is the integer configuration of DepthwiseConvFloat32.
func DepthwiseConvInt32(x, w, bias []int32, batch int, s DWShape) ([]int32, armtime.OpCounts) {
	oh, ow := s.OutH(), s.OutW()
	out := make([]int32, batch*oh*ow*s.C)
	for b := 0; b < batch; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for c := 0; c < s.C; c++ {
					acc := bias[c]
					for ky := 0; ky < s.KH; ky++ {
						for kx := 0; kx < s.KW; kx++ {
							xi := ((b*s.InH+oy*s.Stride+ky)*s.InW + ox*s.Stride + kx) * s.C
							acc += x[xi+c] * w[(ky*s.KW+kx)*s.C+c]
						}
					}
					out[((b*oh+oy)*ow+ox)*s.C+c] = acc
				}
			}
		}
	}
	return out, convCounts(uint64(batch)*uint64(oh)*uint64(ow)*uint64(s.C), uint64(s.KH*s.KW), false)
}

// MaxPoolFloat32 max-pools PH×PW windows with stride Stride over a
// batch×H×W×C tensor (valid: windows never cross the edge).
func MaxPoolFloat32(x []float32, batch, h, w, c, ph, pw, stride int) ([]float32, armtime.OpCounts) {
	oh, ow := (h-ph)/stride+1, (w-pw)/stride+1
	out := make([]float32, batch*oh*ow*c)
	for b := 0; b < batch; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for ch := 0; ch < c; ch++ {
					best := x[((b*h+oy*stride)*w+ox*stride)*c+ch]
					for py := 0; py < ph; py++ {
						for px := 0; px < pw; px++ {
							v := x[((b*h+oy*stride+py)*w+ox*stride+px)*c+ch]
							if v > best {
								best = v
							}
						}
					}
					out[((b*oh+oy)*ow+ox)*c+ch] = best
				}
			}
		}
	}
	return out, poolCounts(uint64(batch)*uint64(oh)*uint64(ow)*uint64(c), uint64(ph*pw))
}

// MaxPoolInt32 is the integer configuration of MaxPoolFloat32.
func MaxPoolInt32(x []int32, batch, h, w, c, ph, pw, stride int) ([]int32, armtime.OpCounts) {
	oh, ow := (h-ph)/stride+1, (w-pw)/stride+1
	out := make([]int32, batch*oh*ow*c)
	for b := 0; b < batch; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for ch := 0; ch < c; ch++ {
					best := x[((b*h+oy*stride)*w+ox*stride)*c+ch]
					for py := 0; py < ph; py++ {
						for px := 0; px < pw; px++ {
							v := x[((b*h+oy*stride+py)*w+ox*stride+px)*c+ch]
							if v > best {
								best = v
							}
						}
					}
					out[((b*oh+oy)*ow+ox)*c+ch] = best
				}
			}
		}
	}
	return out, poolCounts(uint64(batch)*uint64(oh)*uint64(ow)*uint64(c), uint64(ph*pw))
}

func poolCounts(outN, taps uint64) armtime.OpCounts {
	return armtime.OpCounts{
		IntAdd:       outN * 4 * taps,
		Load:         outN * taps,
		Store:        outN,
		Branch:       outN * 2 * taps, // loop + compare
		BytesTouched: outN * (taps + 1) * 4,
	}
}

// ReLUFloat32 computes max(x, 0) elementwise.
func ReLUFloat32(x []float32) ([]float32, armtime.OpCounts) {
	out := make([]float32, len(x))
	for i, v := range x {
		if v > 0 {
			out[i] = v
		}
	}
	return out, reluCounts(uint64(len(x)))
}

// ReLUInt32 is the integer configuration of ReLUFloat32.
func ReLUInt32(x []int32) ([]int32, armtime.OpCounts) {
	out := make([]int32, len(x))
	for i, v := range x {
		if v > 0 {
			out[i] = v
		}
	}
	return out, reluCounts(uint64(len(x)))
}

func reluCounts(n uint64) armtime.OpCounts {
	return armtime.OpCounts{
		IntAdd:       n,
		Load:         n,
		Store:        n,
		Branch:       2 * n,
		BytesTouched: 8 * n,
	}
}

// DenseFloat32 computes out[b][o] = bias[o] + Σ_i x[b][i]·w[i][o] — a fully
// connected layer over batch rows.
func DenseFloat32(x, w, bias []float32, batch, in, outN int) ([]float32, armtime.OpCounts) {
	out := make([]float32, batch*outN)
	for b := 0; b < batch; b++ {
		for o := 0; o < outN; o++ {
			acc := bias[o]
			for i := 0; i < in; i++ {
				acc += x[b*in+i] * w[i*outN+o]
			}
			out[b*outN+o] = acc
		}
	}
	return out, convCounts(uint64(batch)*uint64(outN), uint64(in), true)
}

// DenseInt32 is the integer configuration of DenseFloat32.
func DenseInt32(x, w, bias []int32, batch, in, outN int) ([]int32, armtime.OpCounts) {
	out := make([]int32, batch*outN)
	for b := 0; b < batch; b++ {
		for o := 0; o < outN; o++ {
			acc := bias[o]
			for i := 0; i < in; i++ {
				acc += x[b*in+i] * w[i*outN+o]
			}
			out[b*outN+o] = acc
		}
	}
	return out, convCounts(uint64(batch)*uint64(outN), uint64(in), false)
}

// SoftmaxFloat32 computes a numerically-stable softmax over each batch row
// of n logits: exp(x - rowmax) / Σ exp(x - rowmax).
func SoftmaxFloat32(x []float32, batch, n int) ([]float32, armtime.OpCounts) {
	out := make([]float32, batch*n)
	for b := 0; b < batch; b++ {
		row := x[b*n : (b+1)*n]
		max := row[0]
		for _, v := range row[1:] {
			if v > max {
				max = v
			}
		}
		var sum float32
		for i, v := range row {
			e := float32(math.Exp(float64(v - max)))
			out[b*n+i] = e
			sum += e
		}
		for i := range row {
			out[b*n+i] /= sum
		}
	}
	nn := uint64(batch) * uint64(n)
	return out, armtime.OpCounts{
		// exp priced as an 8-term polynomial (software exp on ARM1176).
		FpAdd:        nn * 11, // max scan + exp terms + sum
		FpMul:        nn * 8,
		FpDiv:        nn,
		IntAdd:       nn * 3,
		Load:         nn * 3,
		Store:        nn * 2,
		Branch:       nn * 3,
		BytesTouched: nn * 16,
	}
}

// RescaleInt32 computes out[i] = x[i] >> shift (floor division by 2^shift)
// — the fixed-point requantization step between integer layers that keeps
// accumulators inside the GPU's exact 24-bit window.
func RescaleInt32(x []int32, shift uint) ([]int32, armtime.OpCounts) {
	out := make([]int32, len(x))
	for i, v := range x {
		out[i] = v >> shift
	}
	n := uint64(len(x))
	return out, armtime.OpCounts{
		IntAdd:       n,
		Load:         n,
		Store:        n,
		Branch:       n,
		BytesTouched: 8 * n,
	}
}

// ArgmaxFloat32 returns the index of the largest value per batch row — the
// classification decision (host-side, as inference services do).
func ArgmaxFloat32(x []float32, batch, n int) []int {
	out := make([]int, batch)
	for b := 0; b < batch; b++ {
		best := 0
		for i := 1; i < n; i++ {
			if x[b*n+i] > x[b*n+best] {
				best = i
			}
		}
		out[b] = best
	}
	return out
}

// ArgmaxInt32 is the integer configuration of ArgmaxFloat32.
func ArgmaxInt32(x []int32, batch, n int) []int {
	out := make([]int, batch)
	for b := 0; b < batch; b++ {
		best := 0
		for i := 1; i < n; i++ {
			if x[b*n+i] > x[b*n+best] {
				best = i
			}
		}
		out[b] = best
	}
	return out
}
