// Package glescompute is a general-purpose compute library for OpenGL ES
// 2.0 class GPUs, reproducing "Towards General Purpose Computations on
// Low-End Mobile GPUs" (Trompouki & Kosmidis, DATE 2016).
//
// Low-end mobile GPUs expose only the ES 2.0 graphics API: no OpenCL, no
// compute shaders, no float textures, no float framebuffers, and no
// texture readback. This library packages the paper's workarounds behind a
// Device/Buffer/Kernel API:
//
//	dev, _ := glescompute.Open(glescompute.Config{})
//	defer dev.Close()
//
//	a, _ := dev.NewBuffer(glescompute.Float32, 1024)
//	b, _ := dev.NewBuffer(glescompute.Float32, 1024)
//	out, _ := dev.NewBuffer(glescompute.Float32, 1024)
//	a.WriteFloat32(xs)
//	b.WriteFloat32(ys)
//
//	k, _ := dev.BuildKernel(glescompute.KernelSpec{
//		Name:   "sum",
//		Inputs: []glescompute.Param{{Name: "a", Type: glescompute.Float32}, {Name: "b", Type: glescompute.Float32}},
//		Source: `float gc_kernel(float idx) { return gc_a(idx) + gc_b(idx); }`,
//	})
//	k.Run1(out, []*glescompute.Buffer{a, b}, nil)
//	result, _ := out.ReadFloat32()
//
// Kernels are GLSL ES 1.00 fragment-shader functions; the library
// generates the surrounding machinery: the pass-through vertex shader, the
// two-triangle full-screen quad, 2D texture layouts with normalized
// addressing for linear arrays, and — the core of the paper — the numeric
// transformations that move uint8/int8/uint32/int32/float32 data through
// RGBA8 textures and framebuffers.
//
// The backing "GPU" is a complete software simulation of an OpenGL ES 2.0
// device of the VideoCore IV class (GLSL ES compiler, rasterizer, ES 2.0
// state machine), including its restrictions and its float precision
// behaviour. Timing models for the VideoCore IV and its companion ARM1176
// CPU reproduce the performance relationships the paper reports; see
// EXPERIMENTS.md.
//
// For serving many small requests, Queue turns the library into an
// asynchronous multi-device compute service: a pool of devices (each
// pinned to its own goroutine), non-blocking submission with bounded
// backpressure, and request batching that coalesces small same-kernel
// jobs into one fragment pass:
//
//	q, _ := glescompute.OpenQueue(glescompute.QueueConfig{Devices: 4})
//	defer q.Close()
//	job, _ := q.Submit(ctx, glescompute.JobSpec{
//		Kernel:    spec,
//		In:        []glescompute.JobInput{glescompute.Float32Input(xs), glescompute.Float32Input(ys)},
//		Batchable: true, // element-wise: eligible for coalescing
//	})
//	res, _ := job.Wait(ctx)
//	sums, _ := res.Float32()
//
// The queue is fault-tolerant: a device whose context is lost (or whose
// job panics) is quarantined and replaced, with its kernels recompiled
// from their cache keys; jobs that opt in via JobSpec.Retry are
// resubmitted to a healthy device with exponential backoff, and
// JobSpec.Deadline bounds a job's total time in the service. See
// DESIGN.md §6e for the fault model and health state machine.
//
// For serving at scale the queue adds three more levers: a batching
// window (QueueConfig.BatchWindow) that holds coalescible submissions
// briefly so same-group requests land in one launch (continuous
// batching — nn.Service.SetContinuousBatching rides it for model
// inference); SLO-aware admission control (QueueConfig.Admission) that
// sheds work (ErrShed) by priority class (JobSpec.Priority) when the
// estimated queue delay exceeds its budget; and a persistent compile
// cache (NewCompileCache, Config.CompileCache, or the
// GLESCOMPUTE_COMPILE_CACHE environment variable) that lets a cold pool
// restore compiled kernels as program binaries instead of recompiling.
// See DESIGN.md §6i–§6j.
//
// The glescompute/nn subpackage builds neural-network inference on this
// stack: conv/pool/dense layers as fragment kernels, whole CNNs compiled
// into one device-resident pipeline, and inference serving over Queue.
package glescompute

import (
	"glescompute/internal/codec"
	"glescompute/internal/core"
	"glescompute/internal/sched"
)

// Re-exported core types. The implementation lives in internal/core; these
// aliases are the supported public surface.
type (
	// Device is a simulated low-end mobile GPU opened for compute.
	Device = core.Device
	// Buffer is a typed device array backed by an RGBA8 texture.
	Buffer = core.Buffer
	// Kernel is a compiled compute kernel.
	Kernel = core.Kernel
	// KernelSpec declares a kernel; see its field documentation.
	KernelSpec = core.KernelSpec
	// Param declares one kernel input buffer.
	Param = core.Param
	// OutputSpec declares one kernel output.
	OutputSpec = core.OutputSpec
	// Config configures a device.
	Config = core.Config
	// RunStats reports one kernel execution.
	RunStats = core.RunStats
	// Timeline is the modeled wall-clock breakdown of device work.
	Timeline = core.Timeline
	// ElemType enumerates supported element types.
	ElemType = codec.ElemType
	// Pipeline chains kernels device-resident: each stage's output
	// texture feeds the next stage's sampler with no host round-trip.
	// Its fusion planner merges chains of element-wise stages and
	// declared epilogues into single fragment passes (DESIGN.md §6d);
	// SetFusion(false) selects the unfused reference path per pipeline.
	Pipeline = core.Pipeline
	// PipelineStats reports one pipeline execution, including the
	// host-traffic counters proving the chain stayed on-device and the
	// fusion accounting (FusedStages, ExecStages, FusionFallbacks).
	PipelineStats = core.PipelineStats
	// Ref names a data slot (input or stage output) inside a Pipeline.
	Ref = core.Ref
	// ReduceOp is a pairwise fold operator for Pipeline.Reduce.
	ReduceOp = core.ReduceOp
)

// Re-exported scheduler types: the asynchronous multi-device compute
// service of internal/sched.
type (
	// Queue is an async compute service over a pool of devices.
	Queue = sched.Queue
	// QueueConfig configures a queue (pool size, queue depth, batching).
	QueueConfig = sched.Config
	// Job is an in-flight compute request returned by Queue.Submit.
	Job = sched.Job
	// JobSpec describes one compute request over host slices.
	JobSpec = sched.JobSpec
	// GroupSpec runs a job through a caller-supplied launch on the
	// executing device (JobSpec.Group); jobs with equal non-empty Keys
	// coalesce into one launch, and an empty Key runs the job alone.
	GroupSpec = sched.GroupSpec
	// JobInput is one typed input to a job; build with Float32Input &c.
	JobInput = sched.Input
	// JobResult is a completed job's output and statistics.
	JobResult = sched.Result
	// JobStats reports how one job was executed (device, batching,
	// modeled launch timeline, queueing delay).
	JobStats = sched.JobStats
	// QueueStats is a service-level snapshot aggregating the per-device
	// modeled timelines.
	QueueStats = sched.QueueStats
	// QueueDeviceStats is one pooled device's share of the work.
	QueueDeviceStats = sched.DeviceStats
	// RetryPolicy opts a job into automatic resubmission after a
	// retryable device fault (ErrDeviceLost, ErrOutOfMemory), with
	// exponential backoff. Jobs must be idempotent to use it.
	RetryPolicy = sched.RetryPolicy
	// DeviceHealth is a pooled device's position in the health state
	// machine: healthy, quarantined (being replaced), or dead.
	DeviceHealth = sched.DeviceHealth
	// AdmissionPolicy enables SLO-aware admission control on a queue
	// (QueueConfig.Admission): Submit sheds jobs whose estimated modeled
	// queue delay exceeds their priority class's budget, returning
	// ErrShed immediately instead of letting them time out in the
	// backlog.
	AdmissionPolicy = sched.AdmissionPolicy
	// JobPriority classifies a job (JobSpec.Priority) for admission
	// control and batch-flush ordering; the zero value is PriorityNormal.
	JobPriority = sched.Priority
	// CompileCache is a two-tier (memory + optional disk) program-binary
	// cache shared across devices via Config.CompileCache /
	// QueueConfig pools; construct with NewCompileCache. A pool sharing
	// one cache compiles each kernel once; a disk-backed cache survives
	// process restarts, warming a cold pool in modeled milliseconds.
	CompileCache = core.CompileCache
	// CompileCacheStats counts a cache's traffic (memory hits, disk
	// hits, misses, stores, rejects).
	CompileCacheStats = core.CompileCacheStats
)

// Health states reported in QueueDeviceStats.Health.
const (
	DeviceHealthy     = sched.DeviceHealthy
	DeviceQuarantined = sched.DeviceQuarantined
	DeviceDead        = sched.DeviceDead
)

// Priority classes for JobSpec.Priority. Under admission control, batch
// traffic is shed first (half the SLO budget) and interactive last
// (twice the budget); buffered batches flush highest class first.
const (
	PriorityBatch       = sched.PriorityBatch
	PriorityNormal      = sched.PriorityNormal
	PriorityInteractive = sched.PriorityInteractive
)

// Sentinel errors.
var (
	// ErrClosed is wrapped by operations on a closed Device, Kernel or
	// Pipeline.
	ErrClosed = core.ErrClosed
	// ErrQueueClosed is returned by Queue.Submit after Queue.Close. It
	// wraps ErrClosed, so errors.Is(err, ErrClosed) holds for it too.
	ErrQueueClosed = sched.ErrQueueClosed
	// ErrDeviceLost is wrapped by operations that died with the GL
	// context (context loss, mid-job device failure, a panicking job).
	// Retryable: pair with JobSpec.Retry to resubmit to a healthy device.
	ErrDeviceLost = core.ErrDeviceLost
	// ErrOutOfMemory is wrapped by operations that hit a (possibly
	// transient) GL_OUT_OF_MEMORY. Retryable.
	ErrOutOfMemory = core.ErrOutOfMemory
	// ErrShed is wrapped by Queue.Submit rejections under admission
	// control (QueueConfig.Admission): the estimated queue delay exceeded
	// the job's class budget. Check with errors.Is; don't retry
	// immediately — shedding means the service is already over capacity.
	ErrShed = sched.ErrShed
)

// NewCompileCache creates a program-binary cache persisted under dir
// (created if missing; empty dir = memory-only). Share one cache across
// a pool via Config.CompileCache, or set the GLESCOMPUTE_COMPILE_CACHE
// environment variable (EnvCompileCache) to give every device without an
// explicit cache a process-wide default.
func NewCompileCache(dir string) (*CompileCache, error) { return core.NewCompileCache(dir) }

// EnvCompileCache names the environment variable holding the default
// persistent compile-cache directory.
const EnvCompileCache = core.EnvCompileCache

// Built-in reduction operators for Pipeline.Reduce.
var (
	ReduceAdd = core.ReduceAdd
	ReduceMin = core.ReduceMin
	ReduceMax = core.ReduceMax
)

// Element types supported by buffers and kernels (paper §IV).
const (
	Uint8   = codec.Uint8
	Int8    = codec.Int8
	Uint32  = codec.Uint32
	Int32   = codec.Int32
	Float32 = codec.Float32
)

// Typed job input constructors for JobSpec.In.
var (
	// Float32Input wraps a []float32 job input.
	Float32Input = sched.Float32s
	// Int32Input wraps a []int32 job input.
	Int32Input = sched.Int32s
	// Uint32Input wraps a []uint32 job input.
	Uint32Input = sched.Uint32s
	// Int8Input wraps an []int8 job input.
	Int8Input = sched.Int8s
	// BytesInput wraps a []uint8 job input.
	BytesInput = sched.Bytes
	// BufferInput snapshots a device buffer as a job input.
	BufferInput = sched.FromBuffer
)

// Open creates a compute device over a fresh simulated OpenGL ES 2.0
// context.
func Open(cfg Config) (*Device, error) { return core.Open(cfg) }

// OpenQueue opens a pool of cfg.Devices simulated devices behind an
// asynchronous compute queue with request batching. See Queue.
func OpenQueue(cfg QueueConfig) (*Queue, error) { return sched.OpenQueue(cfg) }

// MantissaBitsAgreement reports how many of the most significant mantissa
// bits of got are accurate with respect to want — the paper's float
// accuracy metric (§V). Exposed for applications that need to validate
// float kernel output.
func MantissaBitsAgreement(want, got float32) int {
	return codec.MantissaBitsAgreement(want, got)
}
