// Package analysistest runs a diffvet analyzer over fixture packages
// under testdata/src and checks its diagnostics against `// want`
// expectations, mirroring golang.org/x/tools/go/analysis/analysistest
// on the standard library only.
//
// A fixture file marks each line expected to produce a diagnostic:
//
//	rand.Intn(4) // want `global rand\.Intn`
//
// The backquoted pattern is a regular expression matched against the
// diagnostic message. Lines without a want comment must produce no
// diagnostic; want comments without a matching diagnostic fail the
// test. Fixtures may import the standard library freely — dependencies
// type-check against compiler export data resolved through `go list`.
package analysistest //diffvet:allow deadcode — the analyzers' fixture harness; only their tests import it

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"diffserve/internal/analysis"
)

var wantRe = regexp.MustCompile("// want `([^`]*)`")

// Run loads testdata/src/<pkg> relative to dir (usually the analyzer
// package's directory, t.Chdir-independent) for each named fixture
// package and checks a's diagnostics against the fixtures' want
// comments. It returns the diagnostics per package for tests that
// assert beyond the want matching. A module-level analyzer sees all the
// named packages at once; a fixture may import one named before it.
//
//diffvet:allow deadcode — the analyzers' fixture harness; only their tests call it
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) map[string][]analysis.Diagnostic {
	t.Helper()
	loader := &analysis.Loader{Dir: dir}
	srcRoot := filepath.Join(dir, "testdata", "src")
	var loaded []*analysis.Package
	for _, pkg := range pkgs {
		fixDir := filepath.Join(srcRoot, pkg)
		if err := ensureImports(loader, srcRoot, fixDir); err != nil {
			t.Fatalf("%s: resolving fixture imports: %v", pkg, err)
		}
		p, err := loader.LoadDir(fixDir)
		if err != nil {
			t.Fatalf("%s: loading fixture: %v", pkg, err)
		}
		loaded = append(loaded, p)
	}
	moduleDiags, err := analysis.RunModule(loaded, a)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	out := map[string][]analysis.Diagnostic{}
	for i, p := range loaded {
		diags, err := analysis.RunPackage(p, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("%s: running %s: %v", pkgs[i], a.Name, err)
		}
		for _, d := range moduleDiags {
			if filepath.Dir(p.Fset.Position(d.Pos).Filename) == p.Dir {
				diags = append(diags, d)
			}
		}
		out[pkgs[i]] = diags
		check(t, p.Fset, p.Dir, diags)
	}
	return out
}

// ensureImports pre-resolves export data for everything the fixture
// files import, other than sibling fixture packages under srcRoot.
func ensureImports(loader *analysis.Loader, srcRoot, fixDir string) error {
	ents, err := os.ReadDir(fixDir)
	if err != nil {
		return err
	}
	var imports []string
	seen := map[string]bool{}
	fset := token.NewFileSet()
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(fixDir, e.Name()), nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if _, err := os.Stat(filepath.Join(srcRoot, path)); err == nil {
				continue
			}
			if !seen[path] {
				seen[path] = true
				imports = append(imports, path)
			}
		}
	}
	return loader.EnsureExports(imports...)
}

// check compares diagnostics against the want comments in the fixture
// files.
func check(t *testing.T, fset *token.FileSet, fixDir string, diags []analysis.Diagnostic) {
	t.Helper()

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	ents, err := os.ReadDir(fixDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		path := filepath.Join(fixDir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, m[1], err)
				}
				wants[key{path, i + 1}] = append(wants[key{path, i + 1}], re)
			}
		}
	}

	matched := map[key]int{}
	for _, d := range diags {
		p := fset.Position(d.Pos)
		k := key{p.Filename, p.Line}
		res := wants[k]
		found := false
		for _, re := range res {
			if re.MatchString(d.Message) {
				found = true
				matched[k]++
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: unexpected diagnostic [%s]: %s", p.Filename, p.Line, d.Analyzer, d.Message)
		}
	}
	for k, res := range wants {
		if matched[k] < len(res) {
			t.Errorf("%s:%d: expected %d diagnostic(s), matched %d", k.file, k.line, len(res), matched[k])
		}
	}
}
