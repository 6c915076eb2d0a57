package paper

import (
	"fmt"
	"os"
	"time"

	"glescompute/internal/core"
	"glescompute/internal/nn"
)

// ---- compile-cache: cold start with and without the persistent cache ----
//
// Bringing a serving pool up is dominated by compiling N1's network on
// every device. The persistent compile cache (DESIGN.md §6j) stores each
// linked program binary on disk, so a restarted process restores
// programs instead of compiling them.

// CompileCacheResult is the compile-cache experiment: the modeled
// compile time of a cold 4-device pool (every device compiling the float
// LeNet from source) vs the same pool warming through a fresh handle
// onto a pre-populated on-disk cache — the fresh handle's memory tier
// starts empty, so the hits prove the persistent disk tier, as after a
// process restart. The bar is ≥ 10x: a program-binary restore costs
// 200µs against the 10ms compile+link it replaces.
type CompileCacheResult struct {
	ColdCompileUS        float64 `json:"cold_pool_compile_us"`
	WarmCompileUS        float64 `json:"warm_pool_compile_us"`
	CompileCacheSpeedupX float64 `json:"compile_cache_speedup_x"`
	CompileCacheHits     uint64  `json:"compile_cache_hits"`
}

// ccPoolDevices is the pool width the compile-cache race opens: the
// serving story's standard 4-device pool.
const ccPoolDevices = 4

// RunCompileCache prices cold start with and without the persistent
// compile cache: the modeled compile time of opening + building the
// float LeNet on every device of a 4-device pool, from source vs from a
// pre-populated disk cache opened through a fresh handle (empty memory
// tier — every first hit must come off disk, as after a process
// restart).
func RunCompileCache() (CompileCacheResult, error) {
	var res CompileCacheResult
	m := nn.DemoLeNetFloat32(20160316)
	x := nn.DemoInputFloat32(31, 1)

	poolCompile := func(cache func() (*core.CompileCache, error)) (time.Duration, error) {
		var total time.Duration
		for i := 0; i < ccPoolDevices; i++ {
			cc, err := cache()
			if err != nil {
				return 0, err
			}
			dev, err := openDevice(core.Config{CompileCache: cc})
			if err != nil {
				return 0, err
			}
			net, err := m.Build(dev, 1, false)
			if err != nil {
				dev.Close()
				return 0, err
			}
			if _, err := net.Run(x); err != nil {
				net.Close()
				dev.Close()
				return 0, err
			}
			total += dev.Timeline().Compile
			net.Close()
			dev.Close()
		}
		return total, nil
	}

	// Cold: every device gets its own empty memory-only cache, so neither
	// the process-wide env cache nor a sibling device can warm it — each
	// compiles the full network from source.
	cold, err := poolCompile(func() (*core.CompileCache, error) { return core.NewCompileCache("") })
	if err != nil {
		return res, err
	}

	dir, err := os.MkdirTemp("", "glescompute-ccache-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	seed, err := core.NewCompileCache(dir)
	if err != nil {
		return res, err
	}
	if _, err := poolCompile(func() (*core.CompileCache, error) { return seed, nil }); err != nil {
		return res, fmt.Errorf("paper: compile-cache: seeding: %w", err)
	}
	// Fresh handle onto the seeded directory: its memory map is empty, so
	// the measured pool's first build restores every program off disk and
	// later devices off the promoted memory tier — a restarted serving
	// process warming its pool.
	warmCC, err := core.NewCompileCache(dir)
	if err != nil {
		return res, err
	}
	warm, err := poolCompile(func() (*core.CompileCache, error) { return warmCC, nil })
	if err != nil {
		return res, err
	}
	st := warmCC.Stats()
	res.CompileCacheHits = st.Hits()
	res.ColdCompileUS = float64(cold.Microseconds())
	res.WarmCompileUS = float64(warm.Microseconds())
	if warm > 0 {
		res.CompileCacheSpeedupX = float64(cold) / float64(warm)
	}
	if st.Misses != 0 {
		return res, fmt.Errorf("paper: compile-cache: warm pool missed the cache %d times, want 0", st.Misses)
	}
	if st.DiskHits == 0 {
		return res, fmt.Errorf("paper: compile-cache: warm pool never hit the disk tier — the persistence claim is unproven")
	}
	if res.CompileCacheSpeedupX < 10 {
		return res, fmt.Errorf("paper: compile-cache: speedup %.2fx, want >= 10x (cold %.0fµs, warm %.0fµs)",
			res.CompileCacheSpeedupX, res.ColdCompileUS, res.WarmCompileUS)
	}
	return res, nil
}
