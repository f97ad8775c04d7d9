package codecparity

import (
	"go/ast"
	"go/parser"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"diffserve/internal/analysis"
	"diffserve/internal/analysis/analysistest"
)

// TestParityDrift checks every parity-break shape on a copy of a real
// wire struct with a deliberately added field: the added field must be
// reported on both the encode and decode sides, along with json:"-",
// missing-tag, unexported-field, and the half-coded drift pair. The
// allow escape on Spare must suppress its pair of diagnostics.
func TestParityDrift(t *testing.T) {
	analysistest.Run(t, ".", Analyzer, "parity_drift")
}

// TestParityClean checks the analyzer stays silent on a wire/codec
// pair in perfect sync, and that an untagged helper struct in wire.go
// is not mistaken for a message.
func TestParityClean(t *testing.T) {
	diags := analysistest.Run(t, ".", Analyzer, "parity_clean")
	if n := len(diags["parity_clean"]); n != 0 {
		t.Fatalf("parity_clean: want 0 diagnostics, got %d", n)
	}
}

// decodeAssign matches the per-field decode assignments in the real
// codec: `m.Field = d.xxx(...)` / `it.Field = d.xxx(...)`, and the
// slice fields' `m.Field = resize(...)` / `m.Field = readQueryMsgs(d,
// ...)`. Each such line is the sole writer of its field, so deleting it
// must trip the analyzer.
var decodeAssign = regexp.MustCompile(`^\s*(m|it)\.[A-Z]\w*\s*=\s*(d\.|resize\(|readQueryMsgs\(d,)`)

// TestDecodeLineMutations pins the acceptance criterion "removing any
// single field-handling line from the binary codec makes codecparity
// fail": for every per-field decode assignment in the real
// internal/cluster codec.go, re-typecheck the package with that one
// line blanked out and assert the analyzer reports a never-written
// field. Mutations that no longer compile are skipped — the compiler
// already guards those lines.
func TestDecodeLineMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("mutation sweep skipped in -short mode")
	}
	loader := &analysis.Loader{Dir: "."}
	pkgs, err := loader.Load("diffserve/internal/cluster")
	if err != nil {
		t.Fatalf("loading internal/cluster: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("want 1 package, got %d", len(pkgs))
	}
	pkg := pkgs[0]

	base, err := analysis.RunPackage(pkg, []*analysis.Analyzer{Analyzer})
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	for _, d := range base {
		t.Errorf("baseline diagnostic (tree must start clean): %s", d.Message)
	}
	if t.Failed() {
		t.FailNow()
	}

	codecPath := filepath.Join(pkg.Dir, "codec.go")
	srcBytes, err := os.ReadFile(codecPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(srcBytes), "\n")

	mutated := 0
	for i, line := range lines {
		if !decodeAssign.MatchString(line) {
			continue
		}
		mut := make([]string, len(lines))
		copy(mut, lines)
		mut[i] = ""
		files, ok := reparse(loader, pkg, codecPath, strings.Join(mut, "\n"))
		if !ok {
			continue
		}
		mutPkg, err := loader.TypeCheck(pkg.ImportPath, pkg.Dir, files)
		if err != nil {
			// The mutation broke compilation; the compiler is the
			// guard for this line, not the analyzer.
			continue
		}
		mutated++
		diags, err := analysis.RunPackage(mutPkg, []*analysis.Analyzer{Analyzer})
		if err != nil {
			t.Fatalf("line %d: analyzer error: %v", i+1, err)
		}
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, "never written by the binary decode path") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("deleting codec.go line %d (%s) was not caught by codecparity", i+1, strings.TrimSpace(line))
		}
	}
	if mutated < 20 {
		t.Fatalf("mutation sweep exercised only %d decode lines; expected the real codec to have many more", mutated)
	}
	t.Logf("codecparity caught all %d single-line decode deletions", mutated)
}

// encodeAppend matches the per-field encode lines in the real codec:
// `b = appendXxx(b, m.Field)`, and `return appendXxx(b, m.Field)` for a
// message's last field. Blanking the first, or turning the second into
// `return b`, removes a field read on the encode path.
var encodeAppend = regexp.MustCompile(`^(\s*)(b =|return) append\w+\(b, (m|it)\.[A-Z]\w*\)$`)

// TestEncodeLineMutations is the encode-side twin of
// TestDecodeLineMutations: dropping any per-field encode line (see
// encodeAppend) must make codecparity report the field as never read.
// Every message struct has one encode site — the slice loops of the
// batch messages call the element's append function — so every such
// line is load-bearing, the last field's included.
func TestEncodeLineMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("mutation sweep skipped in -short mode")
	}
	loader := &analysis.Loader{Dir: "."}
	pkgs, err := loader.Load("diffserve/internal/cluster")
	if err != nil {
		t.Fatalf("loading internal/cluster: %v", err)
	}
	pkg := pkgs[0]

	codecPath := filepath.Join(pkg.Dir, "codec.go")
	srcBytes, err := os.ReadFile(codecPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(srcBytes), "\n")

	mutated := 0
	for i, line := range lines {
		m := encodeAppend.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		mut := make([]string, len(lines))
		copy(mut, lines)
		mut[i] = ""
		if m[2] == "return" {
			mut[i] = m[1] + "return b"
		}
		files, ok := reparse(loader, pkg, codecPath, strings.Join(mut, "\n"))
		if !ok {
			continue
		}
		mutPkg, err := loader.TypeCheck(pkg.ImportPath, pkg.Dir, files)
		if err != nil {
			continue
		}
		mutated++
		diags, err := analysis.RunPackage(mutPkg, []*analysis.Analyzer{Analyzer})
		if err != nil {
			t.Fatalf("line %d: analyzer error: %v", i+1, err)
		}
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, "never read by the binary codec") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("deleting codec.go line %d (%s) was not caught by codecparity", i+1, strings.TrimSpace(line))
		}
	}
	if mutated < 20 {
		t.Fatalf("mutation sweep exercised only %d encode lines; expected the real codec to have many more", mutated)
	}
	t.Logf("codecparity caught all %d single-line encode deletions", mutated)
}

// reparse rebuilds the package's file list into the loader's FileSet
// with codecPath's content replaced by mutSrc. Returns ok=false if the
// mutated source no longer parses.
func reparse(loader *analysis.Loader, pkg *analysis.Package, codecPath, mutSrc string) ([]*ast.File, bool) {
	var files []*ast.File
	for _, orig := range pkg.Files {
		path := pkg.Fset.Position(orig.Package).Filename
		var src interface{}
		if path == codecPath {
			src = mutSrc
		}
		f, err := parser.ParseFile(loader.Fset(), path, src, parser.ParseComments)
		if err != nil {
			return nil, false
		}
		files = append(files, f)
	}
	return files, true
}
