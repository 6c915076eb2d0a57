// Package nn is the public surface of glescompute's neural-network
// inference library: conv/pool/dense layers expressed as ES 2.0 fragment
// kernels, whole networks compiled into one device-resident pipeline, and
// inference serving over the glescompute.Queue device pool.
//
//	m := nn.NewModel(glescompute.Float32, nn.Shape{H: 28, W: 28, C: 1}).
//		Conv2D("conv1", 5, 5, 6, 1, weights, bias).
//		ReLU("relu1").
//		MaxPool("pool1", 2, 2, 2).
//		Dense("fc", 10, fcWeights, fcBias).
//		Softmax("softmax")
//	net, _ := m.Build(dev, 1, false)
//	res, _ := net.Run(image)   // res.Output: []float32 class probabilities
//
// See DESIGN.md §6c for the layer-to-kernel mapping and EXPERIMENTS.md
// §N1 for measured per-layer performance.
package nn

import (
	"glescompute/internal/codec"
	inn "glescompute/internal/nn"
	"glescompute/internal/sched"
)

type (
	// Model is a device-independent network description (topology plus
	// host weights).
	Model = inn.Model
	// Network is a Model compiled onto one device as a device-resident
	// pipeline.
	Network = inn.Network
	// Result is one Network.Run execution.
	Result = inn.Result
	// Service serves a Model's inference over a queue's device pool.
	Service = inn.Service
	// Shape is a per-image activation shape (height × width × channels).
	Shape = inn.Shape
	// LayerInfo describes one layer of a model for reporting.
	LayerInfo = inn.LayerInfo
)

// Layer kinds, as reported by Model.Layers.
const (
	KindConv    = inn.KindConv
	KindDW      = inn.KindDW
	KindPool    = inn.KindPool
	KindReLU    = inn.KindReLU
	KindDense   = inn.KindDense
	KindSoftmax = inn.KindSoftmax
	KindRescale = inn.KindRescale
)

// NewModel starts a model over elem (Float32, Int32 or Int8) activations
// with the given input image shape. In an Int8 model every Conv2D, Dense
// and DepthwiseConv layer must be followed by a Rescale (Build folds the
// requantization into the layer's kernel), and Build packs four values
// per texel.
func NewModel(elem codec.ElemType, in Shape) *Model { return inn.NewModel(elem, in) }

// NewService wraps a queue in an inference service for the model.
func NewService(m *Model, q *sched.Queue) (*Service, error) { return inn.NewService(m, q) }
