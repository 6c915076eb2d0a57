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
// the scheduler picks, against that device's lazily-built Network (weights
// uploaded once per device and batch size, then resident).
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
	nets  sync.Map // netKey -> *Network
	key   string   // coalescing group key (the service's identity)

	mu        sync.Mutex
	retry     sched.RetryPolicy
	deadline  time.Duration
	maxBucket int // continuous-batching bucket cap; 0 = off
}

type netKey struct {
	dev   *core.Device
	batch int
}

// NewService wraps a queue in an inference service for the model.
func NewService(m *Model, q *sched.Queue) (*Service, error) {
	if err := m.Err(); err != nil {
		return nil, err
	}
	s := &Service{model: m, q: q}
	// The service's own identity keys coalescing, so two services over the
	// same queue — even of one model — never share a launch.
	s.key = fmt.Sprintf("nn:%p", s)
	return s, nil
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
// batching window (sched.Config.BatchWindow) are executed as one batched
// network pass. Coalesced images are packed into power-of-two batch
// buckets (1, 2, 4, … up to maxBucket), padding the tail bucket with
// zero images, so the persistent per-bucket networks netFor caches are
// reused — the pipeline is planned once per bucket size ever seen, never
// per request. Outputs are bit-identical to solo inference: each image's
// result depends only on its own rows of the batched tensors, a property
// the N1 experiment's batched-vs-solo differential asserts.
//
// maxBucket is rounded down to a power of two (minimum 1); 0 disables
// coalescing: each request then runs alone at its exact count, the
// default. A single request larger than the cap still runs at its exact
// count.
func (s *Service) SetContinuousBatching(maxBucket int) {
	cap := 0
	if maxBucket > 0 {
		cap = 1
		for cap*2 <= maxBucket {
			cap *= 2
		}
	}
	s.mu.Lock()
	s.maxBucket = cap
	s.mu.Unlock()
}

// netFor returns the device's network for the batch size, building it on
// first use. Only the device's worker goroutine calls this for a given
// device, so each network is built and used single-threaded.
func (s *Service) netFor(dev *core.Device, batch int) (*Network, error) {
	key := netKey{dev: dev, batch: batch}
	if v, ok := s.nets.Load(key); ok {
		return v.(*Network), nil
	}
	net, err := s.model.Build(dev, batch, false)
	if err != nil {
		return nil, err
	}
	s.nets.Store(key, net)
	return net, nil
}

// InferBatch submits count images (count·In().N() elements, the model's
// element type) as one device launch. The job's output holds the
// count·classes final-layer elements in request order.
func (s *Service) InferBatch(ctx context.Context, images interface{}, count int) (*sched.Job, error) {
	if count <= 0 {
		return nil, fmt.Errorf("nn: InferBatch: non-positive count %d", count)
	}
	if err := s.model.checkInput("InferBatch", images, count); err != nil {
		return nil, err
	}
	s.mu.Lock()
	retry, deadline, bucketCap := s.retry, s.deadline, s.maxBucket
	s.mu.Unlock()
	// With continuous batching off the group is keyless, so the request
	// never coalesces and runs alone at its exact count.
	key := ""
	if bucketCap > 0 {
		key = s.key
	}
	return s.q.Submit(ctx, sched.JobSpec{
		Retry:    retry,
		Deadline: deadline,
		Group: &sched.GroupSpec{
			Key:     key,
			Label:   "nn-infer",
			Payload: &inferRequest{images: images, count: count},
			Run: func(dev *core.Device, payloads []interface{}, sp *obs.Span) ([]interface{}, core.RunStats, error) {
				return s.runCoalesced(dev, payloads, bucketCap, sp)
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

// runCoalesced executes a unit of requests on one device. Consecutive
// requests are greedily packed into chunks of at most bucketCap images (a
// single larger request, or any request when bucketCap is 0, keeps its
// exact count); each chunk runs as one batched pass at the next
// power-of-two bucket size, with the tail slots zero-padded. Padding is
// harmless: every image's output depends only on its own rows of the
// batched tensors, so the real images' results are bit-identical to solo
// runs and the padded rows are simply never sliced out. Each chunk's
// fused passes are recorded as children of the launch span sp (nil when
// untraced). Returns one output per request (in payload order) and the
// summed draw counts.
func (s *Service) runCoalesced(dev *core.Device, payloads []interface{}, bucketCap int, sp *obs.Span) ([]interface{}, core.RunStats, error) {
	reqs := make([]*inferRequest, len(payloads))
	for i, p := range payloads {
		reqs[i] = p.(*inferRequest)
	}
	outs := make([]interface{}, len(reqs))
	var rs core.RunStats
	passAt := sp.Start()
	for start := 0; start < len(reqs); {
		end, images := start, 0
		for end < len(reqs) {
			n := reqs[end].count
			if end > start && images+n > bucketCap {
				break
			}
			images += n
			end++
			if images >= bucketCap {
				break
			}
		}
		batch := images
		if images < bucketCap {
			batch = nextPow2(images)
		}
		net, err := s.netFor(dev, batch)
		if err != nil {
			return nil, rs, err
		}
		res, err := net.Run(s.packInput(reqs[start:end], batch))
		if err != nil {
			return nil, rs, err
		}
		rs.Draw.Add(&res.Stats.Draw)
		passAt = attachPassSpans(sp, res.Stats, passAt)
		perImage := core.HostLen(res.Output) / batch
		off := 0
		for i := start; i < end; i++ {
			n := reqs[i].count * perImage
			outs[i] = core.SubHostSlice(res.Output, off, n)
			off += n
		}
		start = end
	}
	return outs, rs, nil
}

// packInput lays the chunk's images consecutively into one batch-sized
// host slice of the model's element type; slots beyond the real images
// stay zero. A lone exact-sized request passes through uncopied.
func (s *Service) packInput(reqs []*inferRequest, batch int) interface{} {
	if len(reqs) == 1 && reqs[0].count == batch {
		return reqs[0].images
	}
	inN := s.model.in.N()
	buf := core.NewHostSlice(s.model.elem, batch*inN)
	off := 0
	for _, r := range reqs {
		core.CopyHostSlice(buf, off, r.images)
		off += r.count * inN
	}
	return buf
}

// nextPow2 returns the smallest power of two ≥ n.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// attachPassSpans records one child span per executed pipeline pass under
// the launch span, laid out sequentially on the modeled timeline from off
// — the per-layer breakdown the scheduler cannot see inside a group
// runner — and returns where the last pass ends. A fused pass
// ("conv1+relu1+pool1") is one child, as it was one draw; its modeled time
// sits on its first member's StageTimes entry (the others are zero by the
// charging rule, so the children still sum to Time). No-op on a nil span.
func attachPassSpans(sp *obs.Span, st core.PipelineStats, off time.Time) time.Time {
	if sp == nil {
		return off
	}
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
	return off
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
