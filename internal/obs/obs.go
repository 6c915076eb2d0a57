// Package obs is the tracing and metrics layer of the compute stack: a
// span recorder whose output loads into Chrome tracing / Perfetto, plus
// lock-cheap counters, gauges and fixed-bucket latency histograms with
// quantile extraction, exposed over Prometheus-text HTTP.
//
// The package depends only on the standard library, so every layer of the
// stack (core, sched, nn, paper) can report into it without cycles.
//
// Everything is nil-safe: a nil *Tracer hands out nil *Spans, and every
// method on a nil receiver is a no-op that allocates nothing — tracing
// that is switched off costs a nil check on the hot path and nothing
// else (asserted by TestDisabledPathAllocates and BenchmarkSpanDisabled).
//
// The span model is deliberately small. A Tracer owns a set of integer
// tracks (one per device slot, plus the pseudo-track TrackQueue for work
// not yet on a device); a Span is a named interval on a track with
// key/value args, instant events, and child spans. Children may be
// recorded retroactively with an explicit start and duration
// (Span.ChildSpan), which is how modeled vc4 phase times — not measured
// wall intervals — are laid alongside the measured wall spans of the
// launches that produced them.
package obs

import (
	"strconv"
	"sync"
	"time"
)

// TrackQueue is the pseudo-track for spans not (yet) bound to a device
// slot: jobs waiting in the submission queue, jobs that never reached a
// device. Device slots use their pool index (0, 1, ...) as the track.
const TrackQueue = -1

// DefaultMaxEvents bounds a Tracer's recorded spans + instants. The cap
// exists so a tracer attached to an unbounded service cannot grow without
// limit; everything past it is dropped and counted (never silently —
// WriteChromeTrace reports the dropped count in the trace metadata).
const DefaultMaxEvents = 1 << 20

// Tracer records spans and instant events for later export.
type Tracer struct {
	mu      sync.Mutex
	now     func() time.Time
	epoch   time.Time
	seed    int64
	nextID  uint64
	max     int
	dropped uint64
	spans   []*Span
	insts   []instant
	tracks  map[int]string
}

// instant is a point event on a track.
type instant struct {
	track  int
	name   string
	detail string
	at     time.Time
}

// NewTracer creates a tracer. seed brands the trace (exported in the
// trace metadata and available via TraceID) so artifacts produced under a
// fixed seed — paperbench -chaos-seed runs, say — are attributable to it;
// span IDs are sequence numbers, deterministic for a deterministic
// sequence of operations.
func NewTracer(seed int64) *Tracer {
	t := &Tracer{
		now:    time.Now,
		seed:   seed,
		max:    DefaultMaxEvents,
		tracks: map[int]string{},
	}
	t.epoch = t.now()
	return t
}

// SetClock replaces the tracer's time source (tests use a stepped fake
// clock to make exports byte-deterministic) and re-anchors the trace
// epoch to the new clock. Call before recording anything.
func (t *Tracer) SetClock(now func() time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.now = now
	t.epoch = now()
	t.mu.Unlock()
}

// SetMaxEvents replaces the recording cap (0 restores the default).
func (t *Tracer) SetMaxEvents(n int) {
	if t == nil {
		return
	}
	if n <= 0 {
		n = DefaultMaxEvents
	}
	t.mu.Lock()
	t.max = n
	t.mu.Unlock()
}

// Enabled reports whether the tracer records anything; callers may use it
// to skip building expensive span names when tracing is off.
func (t *Tracer) Enabled() bool { return t != nil }

// TraceID is the trace's seed-derived identity, stamped into exports.
func (t *Tracer) TraceID() int64 {
	if t == nil {
		return 0
	}
	return t.seed
}

// NameTrack gives a track a human-readable name ("device 0") in exports.
func (t *Tracer) NameTrack(track int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tracks[track] = name
	t.mu.Unlock()
}

// Start opens a span on a track at the current time. End it with
// Span.End; a never-ended span is omitted from exports.
func (t *Tracer) Start(track int, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if len(t.spans)+len(t.insts) >= t.max {
		t.dropped++
		t.mu.Unlock()
		return nil
	}
	t.nextID++
	s := &Span{t: t, id: t.nextID, track: track, name: name, start: t.now()}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Instant records a point event on a track (a device quarantine, a
// replacement, a slot death) at the current time.
func (t *Tracer) Instant(track int, name, detail string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans)+len(t.insts) >= t.max {
		t.dropped++
		t.mu.Unlock()
		return
	}
	t.insts = append(t.insts, instant{track: track, name: name, detail: detail, at: t.now()})
	t.mu.Unlock()
}

// Len reports how many spans and instants have been recorded.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) + len(t.insts)
}

// Dropped reports how many events the cap discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Span is a named interval on a track.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64

	mu    sync.Mutex
	track int
	name  string
	start time.Time
	end   time.Time
	ended bool
	args  []spanArg
}

type spanArg struct {
	key string
	val interface{}
}

// SetTrack moves the span (and its later children) to a track — jobs are
// started on TrackQueue at submission and moved to the device slot that
// executes them.
func (s *Span) SetTrack(track int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.track = track
	s.mu.Unlock()
}

// Arg attaches a key/value pair exported in the span's args. Values
// should be strings, integers, floats or bools.
func (s *Span) Arg(key string, val interface{}) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.args = append(s.args, spanArg{key: key, val: val})
	s.mu.Unlock()
}

// Event records an instant event on the span's track at the current
// time, annotated as belonging to this span.
func (s *Span) Event(name, detail string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	track := s.track
	s.mu.Unlock()
	s.t.Instant(track, name, detail)
}

// Child opens a sub-span starting now on the span's track.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	track := s.track
	s.mu.Unlock()
	c := s.t.Start(track, name)
	if c != nil {
		c.parent = s.id
	}
	return c
}

// ChildSpan records a completed sub-span with an explicit start and
// duration. This is the retroactive form: modeled vc4 phase times and
// fused pipeline pass times are recorded after the launch, laid out as
// intervals alongside the measured wall spans.
func (s *Span) ChildSpan(name string, start time.Time, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := s.Child(name)
	if c == nil {
		return nil
	}
	c.mu.Lock()
	c.start = start
	c.end = start.Add(d)
	c.ended = true
	c.mu.Unlock()
	return c
}

// Start returns the span's start time (zero on nil).
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.start
}

// End closes the span at the current time. Idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	now := s.t.now()
	s.t.mu.Unlock()
	s.mu.Lock()
	if !s.ended {
		s.end = now
		s.ended = true
	}
	s.mu.Unlock()
}

// itoa is strconv.Itoa, aliased so call sites in hot-ish paths read as
// intentionally cheap.
func itoa(n int) string { return strconv.Itoa(n) }
