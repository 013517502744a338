package grp

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	docFence    = regexp.MustCompile("(?ms)^[ \\t]*```.*?^[ \\t]*```[^\\n]*\\n")
	docSpan     = regexp.MustCompile("`([^`]+)`")
	docIdent    = regexp.MustCompile(`\b(?:Benchmark|Test|Fuzz)[A-Z]\w*\*?`)
	docTestDecl = regexp.MustCompile(`(?m)^func ((?:Benchmark|Test|Fuzz)[A-Z]\w*)\(`)
)

// TestDocsNameExistingPaths keeps the documents that describe the current
// tree from naming what is not in it. Inside back-ticks, a word that looks
// like a repository path (cmd/…, internal/…, scripts/…, bench/…, or
// anything ending in .json, .yml, .sh or _test.go) must exist — from the
// root, or for a bare name like expected.json as a basename somewhere in
// the tree — and a Benchmark*/Test*/Fuzz* identifier must be declared in
// some _test.go (a trailing * makes it a prefix). CHANGES.md and
// ROADMAP.md are history and are not scanned.
func TestDocsNameExistingPaths(t *testing.T) {
	basenames := map[string]bool{}
	var decls []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") && d.Name() != ".github" && d.Name() != ".claude" {
			return filepath.SkipDir // .git, build and run directories
		}
		basenames[d.Name()] = true
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range docTestDecl.FindAllSubmatch(src, -1) {
				decls = append(decls, string(m[1]))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	pathExists := func(w string) bool {
		if strings.Contains(w, "*") {
			m, _ := filepath.Glob(w)
			return len(m) > 0
		}
		if _, err := os.Stat(w); err == nil {
			return true
		}
		return !strings.Contains(w, "/") && basenames[w]
	}
	declared := func(name string) bool {
		prefix, isPrefix := strings.CutSuffix(name, "*")
		for _, d := range decls {
			if d == name || isPrefix && strings.HasPrefix(d, prefix) {
				return true
			}
		}
		return false
	}

	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// A span may wrap over a line break; a fenced block's lines are
		// blanked first so its fences cannot pair with a span's ticks.
		text := docFence.ReplaceAllStringFunc(string(src), func(block string) string {
			return strings.Repeat("\n", strings.Count(block, "\n"))
		})
		for _, loc := range docSpan.FindAllStringSubmatchIndex(text, -1) {
			line := 1 + strings.Count(text[:loc[0]], "\n")
			span := text[loc[2]:loc[3]]
			for _, w := range strings.Fields(span) {
				w = strings.TrimPrefix(strings.Trim(w, `'",;:()`), "./")
				w = strings.TrimSuffix(strings.TrimRight(w, "."), "/")
				if strings.ContainsAny(w, "…<>{}|$") {
					continue // a pattern or a placeholder, not a name
				}
				if looksLikeRepoPath(w) && !pathExists(w) {
					t.Errorf("%s:%d: `%s` names a path that is not in the tree", doc, line, w)
				}
			}
			for _, name := range docIdent.FindAllString(span, -1) {
				if !declared(name) {
					t.Errorf("%s:%d: `%s` is not declared in any _test.go", doc, line, name)
				}
			}
		}
	}
}

func looksLikeRepoPath(w string) bool {
	for _, p := range []string{"cmd/", "internal/", "scripts/", "bench/"} {
		if strings.HasPrefix(w, p) {
			return true
		}
	}
	for _, s := range []string{".json", ".yml", ".sh", "_test.go"} {
		if strings.HasSuffix(w, s) {
			return true
		}
	}
	return false
}
