package walltime

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"diffserve/internal/analysis/analysistest"
)

// wallInventory is every wall-clock site the trace-time packages are
// allowed, one entry per //diffvet:allow walltime directive in
// non-test code: "file: reason". The Clock's three anchors convert
// between the two clocks; the harness's four measure the run in wall
// time and keep a stalled trace clock from hanging it. Every wait goes
// through Clock.WaitUntil, so a new wall read needs a new entry here.
var wallInventory = []string{
	"internal/cluster/harness.go: WallSeconds measures real elapsed time for the run report",
	"internal/cluster/harness.go: WallSeconds measures real elapsed time for the run report",
	"internal/cluster/harness.go: drain grace watchdog must fire on wall time even if the trace clock stalls",
	"internal/cluster/harness.go: shutdown watchdog must fire on wall time even if the trace clock stalls",
	"internal/cluster/wire.go: Clock anchors trace time to the wall clock; this is the boundary itself",
	"internal/cluster/wire.go: Restart re-anchors trace zero to the wall clock; this is the boundary itself",
	"internal/cluster/wire.go: trace time is derived from wall elapsed since the anchor; this is the boundary itself",
}

// TestWallInventoryPinned lists the walltime allow directives in the
// non-test files of every trace-time package and holds them to
// wallInventory.
func TestWallInventoryPinned(t *testing.T) {
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, pkg := range TracePackages {
		dir := filepath.Join(root, strings.TrimPrefix(pkg, "diffserve/"))
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if reason, ok := wallAllowReason(c.Text); ok {
						got = append(got, filepath.ToSlash(rel)+": "+reason)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(got)
	want := slices.Clone(wallInventory)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("walltime allow sites in trace-time packages:\n  %s\nwant the inventory:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// wallAllowReason returns the reason of a //diffvet:allow directive
// that names the walltime analyzer.
func wallAllowReason(text string) (string, bool) {
	rest, ok := strings.CutPrefix(text, "//diffvet:allow ")
	if !ok {
		return "", false
	}
	names, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
	if !slices.Contains(strings.Split(names, ","), "walltime") {
		return "", false
	}
	return strings.TrimSpace(strings.TrimLeft(reason, "—–:- ")), true
}

// TestWalltimeTracePackage runs the analyzer scoped to the fixture
// package and checks every forbidden call is flagged, the allow
// escapes (same-line and line-above) suppress, malformed allows are
// themselves reported, and timer plumbing stays legal.
func TestWalltimeTracePackage(t *testing.T) {
	analysistest.Run(t, ".", New("walltime_trace"), "walltime_trace")
}

// TestWalltimeOutOfScopePackage: a package not in the trace-time list
// may use the wall clock freely.
func TestWalltimeOutOfScopePackage(t *testing.T) {
	diags := analysistest.Run(t, ".", New("walltime_trace"), "walltime_clean")
	if n := len(diags["walltime_clean"]); n != 0 {
		t.Fatalf("out-of-scope package produced %d diagnostics, want 0", n)
	}
}

// TestTracePackagesPinned pins the module's authoritative trace-time
// list: shrinking it silently un-guards a package.
func TestTracePackagesPinned(t *testing.T) {
	want := map[string]bool{
		"diffserve/internal/cluster":  true,
		"diffserve/internal/simring":  true,
		"diffserve/internal/queueing": true,
		"diffserve/internal/system":   true,
	}
	if len(TracePackages) != len(want) {
		t.Fatalf("TracePackages = %v, want the 4 trace-time packages", TracePackages)
	}
	for _, p := range TracePackages {
		if !want[p] {
			t.Fatalf("unexpected trace package %q", p)
		}
	}
}
