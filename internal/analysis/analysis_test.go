package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseOne(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

func TestSplitAllow(t *testing.T) {
	cases := []struct {
		rest   string
		names  []string
		reason string
	}{
		{" walltime — lease sweeps are wall-clock", []string{"walltime"}, "lease sweeps are wall-clock"},
		{" walltime,globalrand - shared reason", []string{"walltime", "globalrand"}, "shared reason"},
		{" walltime: colon separator", []string{"walltime"}, "colon separator"},
		{" walltime just whitespace", []string{"walltime"}, "just whitespace"},
		{" walltime", []string{"walltime"}, ""},
		{"", nil, ""},
		{" walltime — real reason // want `ignored`", []string{"walltime"}, "real reason"},
	}
	for _, c := range cases {
		names, reason := splitAllow(c.rest)
		if strings.Join(names, "|") != strings.Join(c.names, "|") || reason != c.reason {
			t.Errorf("splitAllow(%q) = %v, %q; want %v, %q", c.rest, names, reason, c.names, c.reason)
		}
	}
}

// TestAllowFiltering drives RunPackage with a fake analyzer and checks
// that same-line and line-above directives suppress, that directives
// for a different analyzer do not, and that malformed directives are
// reported by the pseudo-analyzer "allow".
func TestAllowFiltering(t *testing.T) {
	src := `package fix

func a() {} //diffvet:allow fake — trailing escape

//diffvet:allow fake — standalone escape covers next line
func b() {}

func c() {} //diffvet:allow other — different analyzer

func d() {} //diffvet:allow fake

func e() {}
`
	fset, f := parseOne(t, src)
	pkg := &Package{ImportPath: "fix", Fset: fset, Files: []*ast.File{f}}

	fake := &Analyzer{
		Name: "fake",
		Doc:  "reports every function declaration",
		Run: func(pass *Pass) error {
			for _, d := range pass.Files[0].Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					pass.Reportf(fd.Pos(), "func %s flagged", fd.Name.Name)
				}
			}
			return nil
		},
	}
	diags, err := RunPackage(pkg, []*Analyzer{fake})
	if err != nil {
		t.Fatal(err)
	}

	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer+": "+d.Message)
	}
	want := []string{
		"fake: func c flagged",
		"fake: func d flagged", // reasonless directive must not suppress
		"allow: diffvet:allow directive has no reason (write //diffvet:allow fake — why the invariant does not apply here)",
		"fake: func e flagged",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("diagnostics:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestAllowNamesNoAnalyzer checks the other malformed shape.
func TestAllowNamesNoAnalyzer(t *testing.T) {
	src := "package fix\n\n//diffvet:allow\nfunc a() {}\n"
	fset, f := parseOne(t, src)
	allows, diags := collectAllows(fset, []*ast.File{f})
	if len(allows) != 0 {
		t.Errorf("nameless directive produced suppressions: %v", allows)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "names no analyzer") {
		t.Errorf("diags = %v, want one names-no-analyzer finding", diags)
	}
}

// TestLoaderLoadsModulePackage checks the export-data loading path end
// to end on a real in-module package with both stdlib and in-module
// dependencies.
func TestLoaderLoadsModulePackage(t *testing.T) {
	loader := &Loader{Dir: "."}
	pkgs, err := loader.Load("diffserve/internal/analysis/...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) < 6 {
		t.Fatalf("Load returned %d packages, want the framework, analysistest and four analyzers", len(pkgs))
	}
	for _, p := range pkgs {
		if p.Types == nil || p.TypesInfo == nil {
			t.Errorf("%s: missing type information", p.ImportPath)
		}
		if len(p.Files) == 0 {
			t.Errorf("%s: no parsed files", p.ImportPath)
		}
	}
}
