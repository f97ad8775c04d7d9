package diffserve

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// perfRef matches a reference into PERFORMANCE.md by section name: the
// file name, an optional "'s" or "(", then one or more quoted names
// joined by commas or "and", e.g.
// PERFORMANCE.md's "Control tick" and "Simulator" sections.
var perfRef = regexp.MustCompile(`PERFORMANCE\.md(?:'s)?[ (,]*("[^"]+"(?:(?:,| and|, and) *"[^"]+")*)`)

// continuation joins a comment or paragraph that wraps onto the next
// line, so a quoted name split across lines is read whole.
var continuation = regexp.MustCompile(`\n[ \t]*(?://|#)?[ \t]*`)

// quoted picks the section names out of one matched reference.
var quoted = regexp.MustCompile(`"([^"]+)"`)

// TestPerformanceReferencesResolve holds every quoted section name that
// follows "PERFORMANCE.md" in the repo's Go files, the Makefile, the CI
// workflow and the verify skill to a heading of PERFORMANCE.md, so a
// rewrite of that file cannot leave a pointer into a section that is
// gone.
func TestPerformanceReferencesResolve(t *testing.T) {
	headings := perfHeadings(t)
	files := []string{"Makefile", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		// This file's own regexps and comments quote the pattern.
		if !d.IsDir() && strings.HasSuffix(path, ".go") && path != "perfdoc_test.go" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	refs := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		text := continuation.ReplaceAllString(string(data), " ")
		for _, m := range perfRef.FindAllStringSubmatch(text, -1) {
			for _, q := range quoted.FindAllStringSubmatch(m[1], -1) {
				refs++
				if !headings[q[1]] {
					t.Errorf("%s: PERFORMANCE.md has no section %q", f, q[1])
				}
			}
		}
	}
	if refs == 0 {
		t.Fatal("found no quoted PERFORMANCE.md section reference; the pattern no longer matches how the repo writes them")
	}
}

// perfHeadings returns the text of every Markdown heading of
// PERFORMANCE.md outside code fences, with backquotes removed.
func perfHeadings(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open("PERFORMANCE.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	headings := map[string]bool{}
	fenced := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "```"):
			fenced = !fenced
		case !fenced && strings.HasPrefix(line, "#"):
			name := strings.TrimSpace(strings.TrimLeft(line, "#"))
			headings[strings.ReplaceAll(name, "`", "")] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return headings
}
