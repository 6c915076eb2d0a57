package core

import (
	"runtime"
	"strings"
	"testing"
)

// exec_test.go pins the ExecConfig resolution contract: explicit field >
// environment variable > built-in default, per field; and out-of-domain
// values are rejected at Open, not silently coerced.

func TestExecFusionPrecedence(t *testing.T) {
	// Explicit toggles win in both directions regardless of the env var.
	t.Setenv(EnvDisableFusion, "1")
	if (ExecConfig{Fusion: Enabled}).FusionEnabled() != true {
		t.Error("Enabled lost to the env var")
	}
	if (ExecConfig{}).FusionEnabled() != false {
		t.Error("DefaultToggle ignored the env var")
	}
	t.Setenv(EnvDisableFusion, "")
	if (ExecConfig{Fusion: Disabled}).FusionEnabled() != false {
		t.Error("Disabled needs no env var")
	}
	if (ExecConfig{}).FusionEnabled() != true {
		t.Error("built-in default is fusion on")
	}
}

func TestExecWorkersPrecedence(t *testing.T) {
	t.Setenv(EnvRasterWorkers, "3")
	if got := (ExecConfig{RasterWorkers: 7}).Workers(); got != 7 {
		t.Errorf("Workers() = %d with explicit 7, want 7 (env var must lose)", got)
	}
	if got := (ExecConfig{}).Workers(); got != 3 {
		t.Errorf("Workers() = %d with env=3, want 3", got)
	}
	if !(ExecConfig{}).WorkersPinned() {
		t.Error("WorkersPinned() = false with env set")
	}
	// A malformed or non-positive env value is ignored, not an error:
	// the variable is operational tuning, never a correctness input.
	t.Setenv(EnvRasterWorkers, "banana")
	if got := (ExecConfig{}).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers() = %d with garbage env, want GOMAXPROCS", got)
	}
	t.Setenv(EnvRasterWorkers, "0")
	if (ExecConfig{}).WorkersPinned() {
		t.Error("WorkersPinned() = true for env=0")
	}
	t.Setenv(EnvRasterWorkers, "")
	if got := (ExecConfig{}).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers() = %d with nothing set, want GOMAXPROCS", got)
	}
	if (ExecConfig{}).WorkersPinned() {
		t.Error("WorkersPinned() = true with nothing set")
	}
}

func TestExecMergePoolDefaults(t *testing.T) {
	def := ExecConfig{Fusion: Disabled, RasterWorkers: 3, UseInterpreter: true}
	// Zero dst inherits everything.
	if got := MergeExec(ExecConfig{}, def); got != def {
		t.Errorf("MergeExec(zero, def) = %+v, want %+v", got, def)
	}
	// Set dst fields always win.
	dst := ExecConfig{Fusion: Enabled, RasterWorkers: 8}
	got := MergeExec(dst, def)
	if got.Fusion != Enabled || got.RasterWorkers != 8 {
		t.Errorf("MergeExec overrode explicit dst fields: %+v", got)
	}
	if !got.UseInterpreter {
		t.Error("pool-wide UseInterpreter must propagate")
	}
}

func TestExecValidateAtOpen(t *testing.T) {
	cases := []struct {
		name string
		exec ExecConfig
		want string
	}{
		{"bad-toggle", ExecConfig{Fusion: 3}, "Fusion"},
		{"negative-workers", ExecConfig{RasterWorkers: -1}, "RasterWorkers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Open(Config{Exec: tc.exec})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open(%+v) error = %v, want mention of %s", tc.exec, err, tc.want)
			}
		})
	}
}

func TestDeviceExecResolved(t *testing.T) {
	dev, err := Open(Config{Exec: ExecConfig{RasterWorkers: 2, UseInterpreter: true, Fusion: Disabled}})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	e := dev.Exec()
	if e.RasterWorkers != 2 || !e.UseInterpreter || e.Fusion != Disabled {
		t.Errorf("Device.Exec() = %+v, want Config.Exec", e)
	}
}
