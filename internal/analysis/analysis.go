// Package analysis is a self-contained static-analysis framework
// mirroring the shape of golang.org/x/tools/go/analysis, built only on
// the standard library so the repo's analyzers run without network
// access or external modules. Analyzers receive a type-checked package
// (AST + go/types info) and report diagnostics; the driver
// (cmd/diffvet) loads every package in the module, runs the registered
// analyzers, and fails the build on any finding.
//
// Suppression works through allow comments (see allow.go): a line
// carrying, or immediately preceded by,
//
//	//diffvet:allow <analyzer>[,<analyzer>...] — <reason>
//
// is exempt from those analyzers' diagnostics. The reason is
// mandatory: an allow comment without one is itself reported, so every
// escape hatch in the tree documents why the invariant does not apply.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant check. It is the unit the driver
// and the analysistest harness both run.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //diffvet:allow comments. Lowercase, no spaces.
	Name string
	// Doc is the one-paragraph description shown by cmd/diffvet -list.
	Doc string
	// Run inspects the package and reports diagnostics through
	// pass.Report. The returned error aborts the whole run (reserved
	// for internal analyzer failures, not findings).
	Run func(pass *Pass) error
	// RunModule, set instead of Run, sees every package of the module
	// at once (deadcode needs the whole module's uses).
	RunModule func(pass *ModulePass) error
}

// A Pass carries one type-checked package to one analyzer.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report records a diagnostic. The framework applies allow-comment
	// filtering afterwards, so analyzers never need to check for
	// escapes themselves.
	Report func(Diagnostic)
}

// A ModulePass carries every package of the module to one analyzer.
// Allowed reports whether an allow directive for the analyzer covers
// pos, so it can widen a directive's reach (a type's to its methods).
type ModulePass struct {
	Pkgs    []*Package
	Report  func(Diagnostic)
	Allowed func(pos token.Pos) bool
}

// Reportf formats and reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned in the analyzed package.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled in by RunPackage
}

// RunPackage runs the analyzers over pkg and returns the surviving
// diagnostics, sorted by position: allow-comment-suppressed findings
// are dropped, and malformed allow comments (no analyzer name, or no
// reason) are reported as findings of the pseudo-analyzer "allow".
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	allows, allowDiags := collectAllows(pkg.Fset, pkg.Files)
	var out []Diagnostic
	out = append(out, allowDiags...)
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		var diags []Diagnostic
		pass := &Pass{
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
		}
		for _, d := range diags {
			d.Analyzer = a.Name
			if !allows.suppresses(pkg.Fset, a.Name, d.Pos) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// RunModule runs a module-level analyzer over pkgs, every package of
// the module, and returns its diagnostics that no allow directive
// suppresses (none for a per-package analyzer). Malformed directives
// are RunPackage's to report.
func RunModule(pkgs []*Package, a *Analyzer) ([]Diagnostic, error) {
	if a.RunModule == nil {
		return nil, nil
	}
	var files []*ast.File
	for _, p := range pkgs {
		files = append(files, p.Files...)
	}
	fset := pkgs[0].Fset
	allows, _ := collectAllows(fset, files)
	var out []Diagnostic
	pass := &ModulePass{Pkgs: pkgs}
	pass.Allowed = func(pos token.Pos) bool { return allows.suppresses(fset, a.Name, pos) }
	pass.Report = func(d Diagnostic) {
		if !pass.Allowed(d.Pos) {
			d.Analyzer = a.Name
			out = append(out, d)
		}
	}
	if err := a.RunModule(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	return out, nil
}
