package main

import (
	"testing"

	"diffserve/internal/analysis"
	"diffserve/internal/analysis/deadcode"
)

// TestSuiteCleanOnRepo is the smoke gate: the full analyzer suite must
// build and exit 0 over the whole module. Any new finding either gets
// fixed or gets an explicit //diffvet:allow with a reason — silent
// drift is not an option.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module sweep skipped in -short mode")
	}
	if code := run([]string{"-C", "../..", "./..."}); code != 0 {
		t.Fatalf("diffvet ./... exited %d; the tree must be diffvet-clean", code)
	}
}

// TestDeadcodeReadsWholeModule pins that deadcode takes its uses from
// the whole module, not from the packages the patterns name: stats'
// API is used only outside stats, so stats alone is full of findings,
// yet diffvet over ./internal/stats is clean.
func TestDeadcodeReadsWholeModule(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load skipped in -short mode")
	}
	if code := run([]string{"-C", "../..", "-only", "deadcode", "./internal/stats"}); code != 0 {
		t.Fatalf("diffvet -only deadcode ./internal/stats exited %d, want 0", code)
	}
	pkgs, err := (&analysis.Loader{Dir: "../.."}).Load("./internal/stats")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunModule(pkgs, deadcode.Analyzer)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("deadcode over stats' own uses found nothing; the check above proves nothing")
	}
}

// TestListAndOnly covers the operational flags.
func TestListAndOnly(t *testing.T) {
	if code := run([]string{"-list"}); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	if code := run([]string{"-only", "nosuch"}); code != 2 {
		t.Fatalf("unknown -only analyzer exited %d, want 2", code)
	}
}
