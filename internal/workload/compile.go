package workload

import (
	"fmt"

	"propeller/internal/acg"
	"propeller/internal/index"
)

// CompileProfile describes a software build whose file accesses Propeller's
// FUSE client would capture (§V-A compiles Git, Thrift and the Linux kernel
// on the Propeller file system). Modules are independent build targets —
// their ACG components are disconnected, which is what Figure 7 shows for
// Thrift.
type CompileProfile struct {
	Name string
	// Modules is the number of independent top-level build targets.
	Modules int
	// DirsPerModule controls source-tree fan-out.
	DirsPerModule int
	// SourcesPerDir is the number of compilation units per directory.
	SourcesPerDir int
	// HeadersPerDir is the number of directory-local headers.
	HeadersPerDir int
	// SharedHeaders is the number of module-wide headers every unit reads.
	SharedHeaders int
	// Iterations replays the build (repeated builds accumulate edge weight,
	// Figure 4).
	Iterations int
}

// ThriftProfile approximates compiling Apache Thrift: two disjoint build
// targets (the compiler and the libraries), ~775 files.
func ThriftProfile() CompileProfile {
	return CompileProfile{
		Name: "thrift", Modules: 2, DirsPerModule: 8,
		SourcesPerDir: 18, HeadersPerDir: 6, SharedHeaders: 4, Iterations: 6,
	}
}

// GitProfile approximates building Git: a flat tree, ~1000 files, sparse
// edges.
func GitProfile() CompileProfile {
	return CompileProfile{
		Name: "git", Modules: 3, DirsPerModule: 4,
		SourcesPerDir: 28, HeadersPerDir: 4, SharedHeaders: 2, Iterations: 1,
	}
}

// LinuxProfile approximates a kernel build scaled by factor (1.0 would be
// the paper's 62k-file graph with ~6M edges; the default harness runs
// scale 0.15 to keep the graph laptop-sized while preserving its shape;
// docs/ARCHITECTURE.md, "Paper tables").
func LinuxProfile(scale float64) CompileProfile {
	if scale <= 0 {
		scale = 0.15
	}
	mods := int(24 * scale)
	if mods < 2 {
		mods = 2
	}
	return CompileProfile{
		Name: "linux", Modules: mods, DirsPerModule: 14,
		SourcesPerDir: 22, HeadersPerDir: 8, SharedHeaders: 12, Iterations: 2,
	}
}

// Files returns the number of distinct files one build touches.
func (p CompileProfile) Files() int {
	perDir := p.SourcesPerDir*2 + p.HeadersPerDir             // sources + objects + headers
	perModule := p.DirsPerModule*perDir + p.SharedHeaders + 1 // + linked artifact
	return p.Modules * perModule
}

// Trace replays the build into builder, registering paths in reg, and
// returns the set of files touched. Build dataflow per compilation unit:
// the compiler process reads the source, its directory headers and the
// module's shared headers, then writes the object file; a final link step
// per module reads every object and writes the module artifact.
func (p CompileProfile) Trace(builder *acg.Builder, reg *PathIDs) []index.FileID {
	touched := make(map[index.FileID]bool)
	var proc acg.PID = 1
	for iter := 0; iter < max(1, p.Iterations); iter++ {
		for m := 0; m < p.Modules; m++ {
			shared := make([]index.FileID, 0, p.SharedHeaders)
			for h := 0; h < p.SharedHeaders; h++ {
				shared = append(shared, reg.ID(fmt.Sprintf("/src/%s/mod%02d/include/common%02d.h", p.Name, m, h)))
			}
			var objects []index.FileID
			for d := 0; d < p.DirsPerModule; d++ {
				headers := make([]index.FileID, 0, p.HeadersPerDir)
				for h := 0; h < p.HeadersPerDir; h++ {
					headers = append(headers, reg.ID(fmt.Sprintf("/src/%s/mod%02d/dir%02d/local%02d.h", p.Name, m, d, h)))
				}
				for s := 0; s < p.SourcesPerDir; s++ {
					src := reg.ID(fmt.Sprintf("/src/%s/mod%02d/dir%02d/unit%03d.c", p.Name, m, d, s))
					obj := reg.ID(fmt.Sprintf("/src/%s/mod%02d/dir%02d/unit%03d.o", p.Name, m, d, s))
					// One compiler process per unit.
					builder.Open(proc, src, acg.OpenRead)
					for _, h := range headers {
						builder.Open(proc, h, acg.OpenRead)
					}
					for _, h := range shared {
						builder.Open(proc, h, acg.OpenRead)
					}
					builder.Open(proc, obj, acg.OpenWrite)
					touched[src] = true
					touched[obj] = true
					for _, h := range headers {
						touched[h] = true
					}
					builder.EndProcess(proc)
					proc++
					objects = append(objects, obj)
				}
			}
			for _, h := range shared {
				touched[h] = true
			}
			// Link step: one process reads all objects, writes the target.
			target := reg.ID(fmt.Sprintf("/src/%s/mod%02d/%s-mod%02d.a", p.Name, m, p.Name, m))
			for _, o := range objects {
				builder.Open(proc, o, acg.OpenRead)
			}
			builder.Open(proc, target, acg.OpenWrite)
			builder.EndProcess(proc)
			proc++
			touched[target] = true
		}
	}
	out := make([]index.FileID, 0, len(touched))
	for f := range touched {
		out = append(out, f)
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
