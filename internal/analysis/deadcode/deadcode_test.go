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

// TestDeadcode runs the analyzer over a declaring package, a package of
// struct fields, a using one and an orphan: uses from any of the first
// three keep a declaration alive, self-uses do not, interface methods,
// iota blocks with a used member, init and allowed keepers are exempt,
// the orphan is reported as a package although its keeper roots all of
// it, and the out-of-scope package is not checked. A field is reported
// when it is only written, bumped, set in a literal or read by its
// wire encoder, and not when it is read or its struct is compared or
// keys a map.
func TestDeadcode(t *testing.T) {
	diags := analysistest.Run(t, ".", New("deadcode_decl", "deadcode_fields", "deadcode_orphan"),
		"deadcode_decl", "deadcode_fields", "deadcode_use", "deadcode_orphan")
	if n := len(diags["deadcode_use"]); n != 0 {
		t.Errorf("out-of-scope deadcode_use: %d diagnostics, want 0", n)
	}
}

// deadcodeAllows is every //diffvet:allow deadcode directive under
// internal/, as "file: identifier". A new keeper shows up here in
// review.
var deadcodeAllows = []string{
	"internal/analysis/analysistest/analysistest.go: Run",
	"internal/analysis/analysistest/analysistest.go: package analysistest",
	"internal/cluster/lb.go: LBConfig.CoalesceWait",
	"internal/cluster/pool_nopoison.go: poolPoisonEnabled",
	"internal/fid/fid.go: Between",
	"internal/fid/fid.go: ExactReference",
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
// of the given lines, a method as Recv.Method, a struct field as
// Type.Field and the package clause as "package name".
func declAt(fset *token.FileSet, f *ast.File, lines ...int) string {
	on := func(id *ast.Ident) bool { return slices.Contains(lines, fset.Position(id.Pos()).Line) }
	if on(f.Name) {
		return "package " + f.Name.Name
	}
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
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, fl := range st.Fields.List {
							for _, id := range fl.Names {
								if on(id) {
									return s.Name.Name + "." + id.Name
								}
							}
						}
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

// configFieldKeepers are the fields of a *Config or *Options struct
// under internal/ that no non-test file outside the declaring package
// sets, each with the reason it stays.
var configFieldKeepers = map[string]string{
	"cluster.HarnessConfig.TransportImpl": "the fault-injection seam: tests substitute a wrapped transport",
}

// TestConfigFieldsHaveSetters holds every field of a struct named
// *Config or *Options, declared in a non-test file under internal/, to
// a caller: some non-test file of another package (examples/ does not
// count) must set it, by composite-literal key or assignment, or the
// field is pinned in configFieldKeepers. A setting only its own
// defaults and tests set is a constant.
//
// The match is by field name alone, so it under-reports: a field is
// taken as set when any other package sets any field of that name.
func TestConfigFieldsHaveSetters(t *testing.T) {
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ dir, name, field string }
	var fields []decl
	setBy := map[string]map[string]bool{} // field name -> directories setting it
	set := func(dir, name string) {
		if setBy[name] == nil {
			setBy[name] = map[string]bool{}
		}
		setBy[name][dir] = true
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (n == "testdata" || n == "examples" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		dir := filepath.ToSlash(rel)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				name := n.Name.Name
				if ok && strings.HasPrefix(dir, "internal/") && (strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							fields = append(fields, decl{dir, filepath.Base(dir) + "." + name + "." + id.Name, id.Name})
						}
					}
				}
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							set(dir, id.Name)
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set(dir, sel.Sel.Name)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unset []string
	kept := map[string]bool{}
	for _, fd := range fields {
		outside := false
		for dir := range setBy[fd.field] {
			outside = outside || dir != fd.dir
		}
		switch _, keep := configFieldKeepers[fd.name]; {
		case outside:
		case keep:
			kept[fd.name] = true
		default:
			unset = append(unset, fd.name)
		}
	}
	slices.Sort(unset)
	if len(unset) > 0 {
		t.Errorf("%d config fields no non-test caller outside their package sets; make each a constant or pin it in configFieldKeepers:\n  %s",
			len(unset), strings.Join(unset, "\n  "))
	}
	for name := range configFieldKeepers {
		if !kept[name] {
			t.Errorf("configFieldKeepers pins %s, which is gone or now has a caller", name)
		}
	}
}
