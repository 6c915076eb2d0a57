package core

// The unified execution-config surface. The knobs that steer how kernels
// execute — fusion planning, rasterizer parallelism, the reference
// interpreter — historically accreted as scattered env vars
// (GLESCOMPUTE_NO_FUSION, GLESCOMPUTE_RASTER_WORKERS) and loose Config
// fields.
// ExecConfig consolidates them: explicit field values always win; the
// zero value of every field preserves the legacy env-var behaviour, so
// existing deployments keep working unchanged.

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
)

// Toggle is a tri-state switch for ExecConfig fields whose default comes
// from a legacy environment variable: the zero value defers to the env
// var, Enabled and Disabled override it in either direction.
type Toggle int8

// Toggle states.
const (
	// DefaultToggle defers to the feature's legacy environment variable
	// (or its built-in default when the variable is unset).
	DefaultToggle Toggle = 0
	// Enabled forces the feature on regardless of environment.
	Enabled Toggle = 1
	// Disabled forces the feature off regardless of environment.
	Disabled Toggle = -1
)

func (t Toggle) String() string {
	switch t {
	case Enabled:
		return "on"
	case Disabled:
		return "off"
	default:
		return "default"
	}
}

// EnvRasterWorkers is the environment variable that sets the default
// fragment-rasterizer worker count for devices whose ExecConfig does not
// pin one explicitly. CI sets it to make wall-clock numbers reproducible
// across runners; ExecConfig.RasterWorkers overrides it per device.
const EnvRasterWorkers = "GLESCOMPUTE_RASTER_WORKERS"

// ExecConfig is the unified execution configuration of a device: every
// knob that changes how work is executed (never what it computes — all
// settings are bit-exact-neutral by construction, enforced by the
// differential test suite). It is embedded in Config as Config.Exec; the
// queue embeds it again as sched.Config.Exec for pool-wide defaults.
//
// Precedence, per field: an explicit non-zero value wins; the zero value
// falls back to the legacy environment variable; an unset variable yields
// the built-in default. The full knob table lives in README.md
// ("Execution configuration").
type ExecConfig struct {
	// Fusion controls the pipeline fusion planner. DefaultToggle means
	// "on unless GLESCOMPUTE_NO_FUSION is set" (the legacy behaviour);
	// Pipeline.SetFusion still overrides per pipeline.
	Fusion Toggle
	// RasterWorkers bounds the tile-rasterizer goroutine pool per draw:
	// 1 forces the sequential rasterizer, 0 means "GLESCOMPUTE_RASTER_WORKERS
	// if set, else GOMAXPROCS". Output is bit-identical at every worker
	// count (tiles are disjoint framebuffer regions; see DESIGN.md §6h).
	RasterWorkers int
	// UseInterpreter runs shaders on the reference AST interpreter
	// instead of the default bytecode VM (same results, slower; the
	// differential test harness uses it).
	UseInterpreter bool
}

// FusionEnabled resolves the Fusion toggle against the environment.
func (e ExecConfig) FusionEnabled() bool {
	switch e.Fusion {
	case Enabled:
		return true
	case Disabled:
		return false
	}
	return !fusionEnvDisabled()
}

// Workers resolves the rasterizer worker count against the environment:
// always ≥ 1.
func (e ExecConfig) Workers() int {
	if e.RasterWorkers > 0 {
		return e.RasterWorkers
	}
	if env := os.Getenv(EnvRasterWorkers); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// WorkersPinned reports whether some explicit setting (field or env var)
// pins the worker count — the queue splits GOMAXPROCS across the pool
// only when nothing pins it.
func (e ExecConfig) WorkersPinned() bool {
	if e.RasterWorkers > 0 {
		return true
	}
	if env := os.Getenv(EnvRasterWorkers); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n > 0 {
			return true
		}
	}
	return false
}

// validate rejects field values outside the documented domain.
func (e ExecConfig) validate() error {
	switch e.Fusion {
	case DefaultToggle, Enabled, Disabled:
	default:
		return fmt.Errorf("core: ExecConfig.Fusion %d: use DefaultToggle, Enabled or Disabled", e.Fusion)
	}
	if e.RasterWorkers < 0 {
		return fmt.Errorf("core: ExecConfig.RasterWorkers %d: must be >= 0", e.RasterWorkers)
	}
	return nil
}

// MergeExec fills the zero fields of dst from def and returns the merge —
// how pool-wide defaults (sched.Config.Exec) compose with per-device
// overrides: a field set in dst always wins.
func MergeExec(dst, def ExecConfig) ExecConfig {
	if dst.Fusion == DefaultToggle {
		dst.Fusion = def.Fusion
	}
	if dst.RasterWorkers == 0 {
		dst.RasterWorkers = def.RasterWorkers
	}
	if def.UseInterpreter {
		dst.UseInterpreter = true
	}
	return dst
}

// Exec returns the device's execution configuration, Config.Exec.
// Environment fallbacks (fusion, raster workers) stay dynamic — they are consulted where the
// feature is engaged, so tests may toggle the env vars after Open.
func (d *Device) Exec() ExecConfig { return d.cfg.Exec }
