package nn

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"glescompute/internal/core"
	"glescompute/internal/obs"
	"glescompute/internal/sched"
)

// Service serves a Model's inference over a sched.Queue device pool.
// Every request rides the queue as a group job (sched.GroupSpec): each
// launch runs the whole device-resident network on whichever pooled device
// the scheduler picks, against that device's one lazily-built Network
// (weights uploaded once per device, then resident). A launch of k images
// runs as a k-row prefix of that network, so every request size shares
// one set of device buffers.
//
// Two submission granularities mirror the serving trade-off the mobile
// inference engines make: Infer runs one image per request (lowest
// latency), InferBatch carries several images as one batch-B network
// execution, amortizing each pass's fixed launch costs across the batch —
// model-level request batching, the CNNdroid regime. SetContinuousBatching
// additionally coalesces concurrent requests into shared launches. Outputs
// are bit-identical either way (see TestServiceSoloAndBatched).
// Requests inherit the queue's fault tolerance: configure SetRetry and the
// service resubmits faulted inferences to a healthy device (inference is
// idempotent — a pure function of the input image — so retried requests
// return bit-identical outputs). Per-request attempt counts surface in the
// completed job's Stats().Attempts. When the scheduler replaces a dead
// device, the fresh *core.Device keys a new cache slot, so weights are
// re-uploaded and pipelines rebuilt on first use — exactly the cold-start
// path a new pool device takes.
type Service struct {
	model *Model
	q     *sched.Queue
	nets  sync.Map // *core.Device -> *Network

	mu       sync.Mutex
	retry    sched.RetryPolicy
	deadline time.Duration
	maxBatch int    // continuous-batching cap in images; 0 = off
	key      string // coalescing group key; "" = off
}

// NewService wraps a queue in an inference service for the model.
func NewService(m *Model, q *sched.Queue) (*Service, error) {
	if err := m.Err(); err != nil {
		return nil, err
	}
	return &Service{model: m, q: q}, nil
}

// SetRetry opts every subsequent request into the queue's automatic retry
// with the given policy. Safe to call concurrently with submissions;
// in-flight requests keep the policy they were submitted with.
func (s *Service) SetRetry(p sched.RetryPolicy) {
	s.mu.Lock()
	s.retry = p
	s.mu.Unlock()
}

// SetDeadline bounds every subsequent request's total time in the
// service; 0 removes the bound.
func (s *Service) SetDeadline(d time.Duration) {
	s.mu.Lock()
	s.deadline = d
	s.mu.Unlock()
}

// SetContinuousBatching opts every subsequent request into queue-level
// request coalescing: same-service requests arriving within the queue's
// batching window (sched.Config.BatchWindow) are executed together. The
// queue's dispatcher forms each launch of up to maxBatch images
// (sched.GroupSpec.MaxRows), and the launch runs as one pass of exactly
// its images on the device's one network, with no padding. Outputs are
// bit-identical to solo inference: each image's result depends only on
// its own rows of the batched tensors, a property the N1 experiment's
// batched-vs-solo differential asserts.
//
// 0 disables coalescing (the default): each request then runs alone at
// its exact count. A single request larger than the cap still runs alone
// at its exact count.
func (s *Service) SetContinuousBatching(maxBatch int) {
	maxBatch = max(maxBatch, 0)
	// The service's own identity and its cap key coalescing, so two
	// services over one queue, even of one model, never share a launch,
	// and neither do requests sent under different caps.
	key := ""
	if maxBatch > 0 {
		key = fmt.Sprintf("nn:%p:%d", s, maxBatch)
	}
	s.mu.Lock()
	s.maxBatch, s.key = maxBatch, key
	s.mu.Unlock()
}

// netFor returns the device's network with room for count images. The
// first use builds it at max(maxBatch, count) images; a later run larger
// than its capacity replaces it. Only the device's worker goroutine calls
// this for a given device, so each network is built, run and closed
// single-threaded.
func (s *Service) netFor(dev *core.Device, count, maxBatch int) (*Network, error) {
	if v, ok := s.nets.Load(dev); ok {
		net := v.(*Network)
		if count <= net.Batch() {
			return net, nil
		}
		s.nets.Delete(dev)
		net.Close()
	}
	net, err := s.model.Build(dev, max(maxBatch, count), false)
	if err != nil {
		return nil, err
	}
	s.nets.Store(dev, net)
	return net, nil
}

// InferBatch submits count images (count·In().N() elements, the model's
// element type) as one device launch. The job's output holds the
// count·classes final-layer elements in request order.
func (s *Service) InferBatch(ctx context.Context, images interface{}, count int) (*sched.Job, error) {
	if err := s.model.checkInput("InferBatch", images, count); err != nil {
		return nil, err
	}
	s.mu.Lock()
	retry, deadline, maxBatch, key := s.retry, s.deadline, s.maxBatch, s.key
	s.mu.Unlock()
	// With continuous batching off the group is keyless, so the request
	// never coalesces and runs alone at its exact count.
	return s.q.Submit(ctx, sched.JobSpec{
		Retry:    retry,
		Deadline: deadline,
		Group: &sched.GroupSpec{
			Key:     key,
			Label:   "nn-infer",
			Payload: &inferRequest{images: images, count: count},
			Rows:    count,
			MaxRows: maxBatch,
			Run: func(dev *core.Device, payloads []interface{}, sp *obs.Span) ([]interface{}, core.RunStats, error) {
				return s.runCoalesced(dev, payloads, maxBatch, sp)
			},
		},
	})
}

// inferRequest is one submission's payload: the caller's images and how
// many of them there are.
type inferRequest struct {
	images interface{}
	count  int
}

// runCoalesced executes a unit of requests on one device as one run of
// exactly their images on the device's network: the queue's dispatcher
// already capped the unit at maxBatch images (or handed a single larger
// request alone). The run's fused passes are recorded as children of the
// launch span sp (nil when untraced). Returns one output per request, in
// payload order, and the run's draw counts.
func (s *Service) runCoalesced(dev *core.Device, payloads []interface{}, maxBatch int, sp *obs.Span) ([]interface{}, core.RunStats, error) {
	reqs := make([]*inferRequest, len(payloads))
	images := 0
	for i, p := range payloads {
		reqs[i] = p.(*inferRequest)
		images += reqs[i].count
	}
	net, err := s.netFor(dev, images, maxBatch)
	if err != nil {
		return nil, core.RunStats{}, err
	}
	res, err := net.Run(s.packInput(reqs, images))
	if err != nil {
		return nil, core.RunStats{}, err
	}
	attachPassSpans(sp, res.Stats)
	perImage := core.HostLen(res.Output) / images
	outs := make([]interface{}, len(reqs))
	off := 0
	for i, r := range reqs {
		n := r.count * perImage
		outs[i] = core.SubHostSlice(res.Output, off, n)
		off += n
	}
	return outs, core.RunStats{Draw: res.Stats.Draw}, nil
}

// packInput lays the unit's images consecutively into one host slice of
// the model's element type. A lone request passes through uncopied.
func (s *Service) packInput(reqs []*inferRequest, images int) interface{} {
	if len(reqs) == 1 {
		return reqs[0].images
	}
	inN := s.model.in.N()
	buf := core.NewHostSlice(s.model.elem, images*inN)
	off := 0
	for _, r := range reqs {
		core.CopyHostSlice(buf, off, r.images)
		off += r.count * inN
	}
	return buf
}

// attachPassSpans records one child span per executed pipeline pass under
// the launch span, laid out sequentially on the modeled timeline from the
// launch's start — the per-layer breakdown the scheduler cannot see inside
// a group runner. A fused pass
// ("conv1+relu1+pool1") is one child, as it was one draw; its modeled time
// sits on its first member's StageTimes entry (the others are zero by the
// charging rule, so the children still sum to Time). No-op on a nil span.
func attachPassSpans(sp *obs.Span, st core.PipelineStats) {
	if sp == nil {
		return
	}
	off := sp.Start()
	head := 0
	for _, pass := range st.ExecStages {
		members := strings.Count(pass, "+") + 1
		if head >= len(st.StageTimes) {
			break
		}
		d := st.StageTimes[head].Total()
		sp.ChildSpan("pass:"+pass, off, d)
		off = off.Add(d)
		head += members
	}
}

// Infer submits a single-image inference.
func (s *Service) Infer(ctx context.Context, image interface{}) (*sched.Job, error) {
	return s.InferBatch(ctx, image, 1)
}

// Close releases the cached per-device networks. Call it after the queue
// has been closed (or drained): networks are freed off their device
// goroutines, which is only safe once no jobs are running — on an
// already-closed device it degenerates to a host-side cleanup.
func (s *Service) Close() error {
	s.nets.Range(func(k, v interface{}) bool {
		v.(*Network).Close()
		s.nets.Delete(k)
		return true
	})
	return nil
}
