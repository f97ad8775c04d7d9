package deadcode

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"diffserve/internal/analysis/analysistest"
)

// TestDeadcode runs the analyzer over a declaring package and a using
// one: uses from either keep a declaration alive, self-uses do not,
// interface methods, iota blocks with a used member, init and allowed
// keepers are exempt, and the out-of-scope package is not checked.
func TestDeadcode(t *testing.T) {
	diags := analysistest.Run(t, ".", New("deadcode_decl"), "deadcode_decl", "deadcode_use")
	if n := len(diags["deadcode_use"]); n != 0 {
		t.Errorf("out-of-scope deadcode_use: %d diagnostics, want 0", n)
	}
}

// deadcodeAllows is every //diffvet:allow deadcode directive under
// internal/, as "file: identifier". A new keeper shows up here in
// review.
var deadcodeAllows = []string{
	"internal/analysis/analysistest/analysistest.go: Run",
	"internal/cluster/codec.go: CodecJSON",
	"internal/cluster/controller.go: ControllerLoop.LoopStats",
	"internal/cluster/pool_nopoison.go: poolPoisonEnabled",
	"internal/fid/fid.go: Between",
	"internal/fid/fid.go: ExactReference",
	"internal/milp/milp.go: Solve",
	"internal/milp/milp.go: SolveLP",
	"internal/stats/moments.go: Welford",
}

// TestDeadcodeAllowsPinned lists the deadcode allow directives in the
// non-test files under internal/ with the identifier each one keeps,
// and holds them to deadcodeAllows.
func TestDeadcodeAllowsPinned(t *testing.T) {
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	err = filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !allowsDeadcode(c.Text) {
					continue
				}
				line := fset.Position(c.Pos()).Line
				name := declAt(fset, f, line, line+1)
				if name == "" {
					t.Errorf("%s:%d: deadcode allow covers no declaration", rel, line)
				}
				got = append(got, filepath.ToSlash(rel)+": "+name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	want := slices.Clone(deadcodeAllows)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("deadcode allow sites:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
	if len(got) > 10 {
		t.Errorf("%d deadcode allow sites, want at most 10", len(got))
	}
}

func allowsDeadcode(text string) bool {
	rest, ok := strings.CutPrefix(text, "//diffvet:allow ")
	if !ok {
		return false
	}
	names, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
	return slices.Contains(strings.Split(names, ","), "deadcode")
}

// declAt names the top-level declaration whose identifier sits on one
// of the given lines, a method as Recv.Method.
func declAt(fset *token.FileSet, f *ast.File, lines ...int) string {
	on := func(id *ast.Ident) bool { return slices.Contains(lines, fset.Position(id.Pos()).Line) }
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !on(d.Name) {
				continue
			}
			if d.Recv != nil {
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				return recv.(*ast.Ident).Name + "." + d.Name.Name
			}
			return d.Name.Name
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if on(s.Name) {
						return s.Name.Name
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if on(id) {
							return id.Name
						}
					}
				}
			}
		}
	}
	return ""
}
