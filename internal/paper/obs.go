package paper

import (
	"glescompute/internal/obs"
	"glescompute/internal/sched"
)

// Obs carries optional observability backends into the experiment
// runners: when non-nil, experiment queues attach the tracer and metric
// registry so paperbench can export a Chrome trace and a Prometheus dump
// of a real experiment run. A nil *Obs (the default everywhere) changes
// nothing about how experiments execute.
type Obs struct {
	Tracer  *obs.Tracer
	Metrics *obs.Registry
}

// apply attaches the backends to a queue configuration.
func (o *Obs) apply(cfg *sched.Config) {
	if o == nil {
		return
	}
	cfg.Tracer = o.Tracer
	cfg.Metrics = o.Metrics
}

// enabled reports whether attaching o would record anything.
func (o *Obs) enabled() bool {
	return o != nil && (o.Tracer != nil || o.Metrics != nil)
}
