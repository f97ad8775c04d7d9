// Command diffvet runs the diffserve static-analysis suite over the
// module: custom analyzers that mechanically enforce the invariants
// this codebase's correctness arguments lean on — pool ownership,
// trace-time purity, seeded randomness, and no dead code under
// internal/. Codec parity is a test (TestCodecRoundTripsEveryField in
// internal/cluster), not an analyzer.
//
// Usage:
//
//	go run ./cmd/diffvet [-C dir] [-only name[,name...]] [-list] [patterns...]
//
// Patterns default to ./... ; deadcode reads the whole module whatever
// they match. Exit status: 0 clean, 1 findings, 2 operational error.
// Findings print as
//
//	path/file.go:line:col: message (diffvet/analyzer)
//
// and any finding can be suppressed, with a mandatory reason, by
//
//	//diffvet:allow analyzer — reason
//
// on the offending line or the line above it.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"diffserve/internal/analysis"
	"diffserve/internal/analysis/deadcode"
	"diffserve/internal/analysis/globalrand"
	"diffserve/internal/analysis/poolownership"
	"diffserve/internal/analysis/walltime"
)

// analyzers is the full suite, in report order.
var analyzers = []*analysis.Analyzer{
	deadcode.Analyzer,
	globalrand.Analyzer,
	poolownership.Analyzer,
	walltime.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("diffvet", flag.ContinueOnError)
	dir := fs.String("C", "", "directory to run in (must be inside the module)")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	suite := analyzers
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		suite = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "diffvet: unknown analyzer %q\n", name)
				return 2
			}
			suite = append(suite, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	// The whole module first: deadcode reads all of it, and the
	// patterns' packages are then the module's own.
	loader := &analysis.Loader{Dir: *dir}
	module, err := loader.LoadModule()
	var pkgs []*analysis.Package
	if err == nil {
		pkgs, err = loader.Load(patterns...)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "diffvet: %v\n", err)
		return 2
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })

	findings := 0
	dirs := map[string]bool{}
	report := func(diags []analysis.Diagnostic) {
		for _, d := range diags {
			if pos := loader.Fset().Position(d.Pos); dirs[filepath.Dir(pos.Filename)] {
				fmt.Printf("%s: %s (diffvet/%s)\n", pos, d.Message, d.Analyzer)
				findings++
			}
		}
	}
	for _, pkg := range pkgs {
		dirs[pkg.Dir] = true
		diags, err := analysis.RunPackage(pkg, suite)
		if err != nil {
			fmt.Fprintf(os.Stderr, "diffvet: %s: %v\n", pkg.ImportPath, err)
			return 2
		}
		report(diags)
	}
	for _, a := range suite {
		diags, err := analysis.RunModule(module, a)
		if err != nil {
			fmt.Fprintf(os.Stderr, "diffvet: %v\n", err)
			return 2
		}
		report(diags)
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "diffvet: %d finding(s)\n", findings)
		return 1
	}
	return 0
}
