package core

// Test-only views of package internals for the external core_test files.

// RenameIdent and MentionsIdent are the fusion planner's identifier
// rename and search.
var (
	RenameIdent   = renameIdent
	MentionsIdent = mentionsIdent
)

// CachedSources returns the source of every kernel in d's compile-once
// cache: each declared stage kernel and each fused kernel the planner
// composed.
func CachedSources(d *Device) []string {
	var out []string
	for _, k := range d.kernelCache {
		out = append(out, k.spec.Source)
	}
	return out
}

// KernelFragments returns, by kernel name, the complete fragment shader of
// the first output of every kernel in d's compile-once cache (kernels that
// share a name, such as one layer kind's stage kernels, share an entry).
func KernelFragments(d *Device) map[string][]string {
	out := make(map[string][]string)
	for _, k := range d.kernelCache {
		out[k.spec.Name] = append(out[k.spec.Name], generateFragmentShader(k.spec, k.spec.Outputs[0]))
	}
	return out
}

// FragmentSources returns the complete fragment shader of every output of
// every kernel in d's compile-once cache.
func FragmentSources(d *Device) []string {
	var out []string
	for _, k := range d.kernelCache {
		for _, o := range k.spec.Outputs {
			out = append(out, generateFragmentShader(k.spec, o))
		}
	}
	return out
}
