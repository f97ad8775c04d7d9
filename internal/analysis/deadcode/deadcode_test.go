package deadcode

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	pathpkg "path"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"diffserve/internal/analysis"
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

// benchmarkOnlyDecls is what deadcode reports once diffserve/benchmark
// is left out of the module: the declarations no non-test file outside
// benchmark/ uses, named as in deadcodeAllows (a field of a method's
// anonymous result struct as Recv.Method.Field). Each maps to the
// benchmark/ file and workloads that read it. ROADMAP item P deletes
// them with that code; until then the list may only shrink.
var benchmarkOnlyDecls = map[string]string{
	"internal/cluster/codec.go: binaryCodec.Marshal":                   "dataplane.go (dataplane_tcp)",
	"internal/cluster/harness.go: Result.Queries":                      "replay.go (cluster_trace)",
	"internal/cluster/lb.go: LBServer.Collector":                       "dataplane.go (dataplane_*)",
	"internal/cluster/transport.go: PollResultsIntoConn":               "dataplane.go (dataplane_*)",
	"internal/cluster/transport.go: PullIntoConn":                      "dataplane.go (dataplane_*)",
	"internal/cluster/wire.go: WorkerStats.Role":                       "control.go (control_tick)",
	"internal/controller/controller.go: Controller.SolveStats":         "control.go (control_tick)",
	"internal/controller/controller.go: Controller.SolveStats.ColdLPs": "control.go (control_tick)",
	"internal/controller/controller.go: Controller.SolveStats.WarmLPs": "control.go (control_tick)",
	"internal/metrics/metrics.go: Collector.Merge":                     "replay.go (sim_replay)",
	"internal/metrics/metrics.go: Collector.Records":                   "replay.go (sim_replay, cluster_trace)",
	"internal/metrics/metrics.go: Tally.ServedMoments":                 "dataplane.go (dataplane_*)",
	"internal/stats/momacc.go: MomentAccumulator.Merge":                "dataplane.go (dataplane_*)",
	"internal/stats/rng.go: RNG.Poisson":                               "control.go (control_tick)",
	"internal/system/system.go: Result.MeanSolveSeconds":               "replay.go (sim_replay)",
	"internal/system/system.go: Result.Queries":                        "replay.go (sim_replay)",
}

// benchmarkOnlyKnobs are the *Config and *Options fields that only
// benchmark/ sets (TestConfigFieldsHaveSetters' scan without
// benchmark/), each with the benchmark/ files and workloads that set it.
var benchmarkOnlyKnobs = map[string]string{
	"baselines.Options.QueryIDBase":   "replay.go (sim_replay)",
	"cluster.ControllerConfig.Shards": "control.go (control_tick)",
	"cluster.LBConfig.CoalesceWait":   "dataplane.go (dataplane_*)",
	"cluster.LBConfig.RNGStream":      "control.go, dataplane.go (control_tick, dataplane_*)",
	"cluster.ShardedLBConfig.Shards":  "control.go, dataplane.go (control_tick, dataplane_sharded)",
}

// shardedTierFiles are the non-test files outside benchmark/ that name
// the sharded LB tier: ShardedLB, NewShardedLB, ShardedLBConfig,
// HarnessConfig.LBShards or ControllerConfig.Shards.
var shardedTierFiles = []string{
	"internal/cluster/controller.go",
	"internal/cluster/harness.go",
	"internal/cluster/shard.go",
	"internal/cluster/transport.go",
	"internal/experiments/figs_ablation.go",
}

// benchmarkOnlyMark is the comment line directly above each pinned
// declaration and knob.
func benchmarkOnlyMark(where string) string {
	return "// benchmark/ only: " + where + "; item P deletes it."
}

// TestBenchmarkOnlySurfacePinned holds what only benchmark/ keeps alive
// to the three pins above: it runs deadcode over the module without
// diffserve/benchmark, reruns the config-field setter scan without
// benchmark/, and lists the non-test files outside benchmark/ that name
// the sharded tier. A new entry, or one that gains a non-test caller
// outside benchmark/, fails until its pin changes with it, and no pin
// may grow past its size today. Every pinned declaration and knob
// carries its benchmarkOnlyMark, and no other line does.
func TestBenchmarkOnlySurfacePinned(t *testing.T) {
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	module, err := (&analysis.Loader{Dir: root}).LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*analysis.Package
	files := map[string]*ast.File{} // file name -> parsed file
	for _, p := range module {
		if p.ImportPath == "diffserve/benchmark" {
			continue
		}
		pkgs = append(pkgs, p)
		for _, f := range p.Files {
			files[p.Fset.Position(f.Package).Filename] = f
		}
	}
	fset := pkgs[0].Fset
	rel := func(filename string) string {
		r, _ := filepath.Rel(root, filename)
		return filepath.ToSlash(r)
	}
	marks := map[string]string{} // "file:line" -> the mark that line must carry above it

	diags, err := analysis.RunModule(pkgs, Analyzer)
	if err != nil {
		t.Fatal(err)
	}
	var decls []string
	for _, d := range diags {
		p := fset.Position(d.Pos)
		name := declAt(fset, files[p.Filename], p.Line)
		if field, ok := strings.CutPrefix(d.Message, "field struct."); ok {
			name += "." + strings.Fields(field)[0]
		}
		decl := rel(p.Filename) + ": " + name
		decls = append(decls, decl)
		marks[fmt.Sprintf("%s:%d", rel(p.Filename), p.Line)] = benchmarkOnlyDecls[decl]
	}
	checkPin(t, "declarations only benchmark/ uses", decls, keys(benchmarkOnlyDecls), 16)

	var knobs []string
	for name, pos := range unsetConfigFields(t, "benchmark") {
		if _, keep := configFieldKeepers[name]; !keep {
			knobs = append(knobs, name)
			marks[pos] = benchmarkOnlyKnobs[name]
		}
	}
	checkPin(t, "config fields only benchmark/ sets", knobs, keys(benchmarkOnlyKnobs), 5)

	var cluster *types.Package
	for _, p := range pkgs {
		if p.ImportPath == "diffserve/internal/cluster" {
			cluster = p.Types
		}
	}
	tier := map[types.Object]bool{}
	for _, name := range []string{"ShardedLB", "NewShardedLB", "ShardedLBConfig"} {
		tier[cluster.Scope().Lookup(name)] = true
	}
	for _, f := range [][2]string{{"HarnessConfig", "LBShards"}, {"ControllerConfig", "Shards"}} {
		obj, _, _ := types.LookupFieldOrMethod(cluster.Scope().Lookup(f[0]).Type(), false, cluster, f[1])
		tier[obj] = true
	}
	var users []string
	for _, p := range pkgs {
		for id, obj := range p.TypesInfo.Uses {
			if tier[obj] {
				users = append(users, rel(fset.Position(id.Pos()).Filename))
			}
		}
	}
	slices.Sort(users)
	checkPin(t, "files naming the sharded tier", slices.Compact(users), shardedTierFiles, 5)

	for name, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "// benchmark/ only") {
					continue
				}
				at := fmt.Sprintf("%s:%d", rel(name), fset.Position(c.Pos()).Line+1)
				if want, ok := marks[at]; !ok {
					t.Errorf("%s: %q marks no pinned declaration on the line below", at, c.Text)
				} else if c.Text != benchmarkOnlyMark(want) {
					t.Errorf("%s: mark above reads %q, want %q", at, c.Text, benchmarkOnlyMark(want))
				}
				delete(marks, at)
			}
		}
	}
	var unmarked []string
	for at, where := range marks {
		if where != "" {
			unmarked = append(unmarked, fmt.Sprintf("%s: pinned, but the line above is not %q", at, benchmarkOnlyMark(where)))
		}
	}
	slices.Sort(unmarked)
	for _, msg := range unmarked {
		t.Error(msg)
	}
}

// keys lists a pin's names.
func keys(m map[string]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// checkPin holds the names found to the pinned ones, at most max of
// them.
func checkPin(t *testing.T, what string, got, pinned []string, max int) {
	t.Helper()
	for _, name := range got {
		if !slices.Contains(pinned, name) {
			t.Errorf("%s: %s is new; use something the system already uses, or pin it", what, name)
		}
	}
	for _, name := range pinned {
		if !slices.Contains(got, name) {
			t.Errorf("%s: %s is pinned but not found (gone, or used outside benchmark/); drop it from the pin", what, name)
		}
	}
	if len(pinned) > max {
		t.Errorf("%s: %d pinned, want at most %d: the pin only shrinks", what, len(pinned), max)
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
var configFieldKeepers = map[string]string{}

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
	unset := unsetConfigFields(t)
	var names []string
	for name := range unset {
		if _, keep := configFieldKeepers[name]; !keep {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	if len(names) > 0 {
		t.Errorf("%d config fields no non-test caller outside their package sets; make each a constant or pin it in configFieldKeepers:\n  %s",
			len(names), strings.Join(names, "\n  "))
	}
	for name := range configFieldKeepers {
		if _, ok := unset[name]; !ok {
			t.Errorf("configFieldKeepers pins %s, which is gone or now has a caller", name)
		}
	}
}

// unsetConfigFields walks the module's non-test files, leaving out
// testdata, examples, dot directories and the top-level directories in
// skip, and returns the fields of every *Config or *Options struct
// declared under internal/ that no walked file of another package sets,
// each as pkg.Type.Field mapped to its "file:line".
func unsetConfigFields(t *testing.T, skip ...string) map[string]string {
	t.Helper()
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ dir, name, field, pos string }
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
			n := d.Name()
			if path != root && (n == "testdata" || n == "examples" || strings.HasPrefix(n, ".") ||
				filepath.Dir(path) == root && slices.Contains(skip, n)) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		dir := pathpkg.Dir(rel)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				name := n.Name.Name
				if ok && strings.HasPrefix(dir, "internal/") && (strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							pos := fmt.Sprintf("%s:%d", rel, fset.Position(id.Pos()).Line)
							fields = append(fields, decl{dir, pathpkg.Base(dir) + "." + name + "." + id.Name, id.Name, pos})
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
	unset := map[string]string{}
	for _, fd := range fields {
		outside := false
		for dir := range setBy[fd.field] {
			outside = outside || dir != fd.dir
		}
		if !outside {
			unset[fd.name] = fd.pos
		}
	}
	return unset
}
