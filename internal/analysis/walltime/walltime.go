// Package walltime implements the diffvet analyzer that keeps
// trace-time packages off the wall clock.
//
// The simulator, the queueing model, and the cluster runtime all
// reason in trace seconds, converted to wall time in exactly one
// place: cluster.Clock. A stray time.Now or time.Sleep in those
// packages silently couples trace math to the host's wall clock and
// breaks both timescale replay (a six-minute trace replayed at 50x)
// and sim-vs-cluster parity. The analyzer forbids the time functions
// that read or wait on the wall clock — Now, Sleep, After, Tick,
// Since, Until — in the configured trace-time packages. Deliberate
// wall-clock spots (the Clock's anchors, the harness's wall-time run
// measurement and watchdogs) carry //diffvet:allow walltime escapes
// with a reason; TestWallInventoryPinned lists every one.
//
// Duration arithmetic (time.Duration, time.NewTimer fed from
// Clock.WallDuration, time.Millisecond literals) stays legal: only
// reading the clock or sleeping against it is the invariant.
package walltime

import (
	"go/ast"
	"go/types"
	"strings"

	"diffserve/internal/analysis"
)

// forbidden lists the package-level time functions that read or block
// on the wall clock.
var forbidden = map[string]bool{
	"Now":   true,
	"Sleep": true,
	"After": true,
	"Tick":  true,
	"Since": true,
	"Until": true,
}

// TracePackages are the import paths (matched exactly, or as a
// "/..."-style prefix) that must go through cluster.Clock for all
// time. This is the module's authoritative list; New lets tests build
// an analyzer scoped to fixture packages instead.
var TracePackages = []string{
	"diffserve/internal/cluster",
	"diffserve/internal/simring",
	"diffserve/internal/queueing",
	"diffserve/internal/system",
}

// Analyzer is the module-scoped instance cmd/diffvet runs.
var Analyzer = New(TracePackages...)

// New builds a walltime analyzer scoped to the given package paths.
func New(tracePkgs ...string) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "walltime",
		Doc: "forbid wall-clock time (time.Now/Sleep/After/Tick/Since/Until) in trace-time packages, " +
			"which must convert trace seconds through cluster.Clock",
		Run: func(pass *analysis.Pass) error {
			return run(pass, tracePkgs)
		},
	}
}

func applies(path string, tracePkgs []string) bool {
	for _, p := range tracePkgs {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass, tracePkgs []string) error {
	if !applies(pass.Pkg.Path(), tracePkgs) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := pass.TypesInfo.Uses[sel.Sel]
			if !ok {
				return true
			}
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if fn.Type().(*types.Signature).Recv() != nil {
				return true // methods on Timer/Ticker/Time are fine
			}
			if forbidden[fn.Name()] {
				pass.Reportf(sel.Pos(),
					"wall-clock time.%s in trace-time package %s: use the shared Clock (or annotate with //diffvet:allow walltime — reason)",
					fn.Name(), pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}
