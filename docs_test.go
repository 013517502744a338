package grp

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

var (
	docFence    = regexp.MustCompile("(?ms)^[ \\t]*```.*?^[ \\t]*```[^\\n]*\\n")
	docSpan     = regexp.MustCompile("`([^`]+)`")
	docIdent    = regexp.MustCompile(`\b(?:Benchmark|Test|Fuzz)[A-Z]\w*\*?`)
	docTestDecl = regexp.MustCompile(`(?m)^func ((?:Benchmark|Test|Fuzz)[A-Z]\w*)\(`)
	docGoName   = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9]*(?:\.[A-Za-z][A-Za-z0-9]*)*$`)
	docGoWord   = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
)

// TestDocsNameExistingPaths keeps the documents that describe the current
// tree from naming what is not in it. Inside back-ticks, a word that looks
// like a repository path (cmd/…, internal/…, scripts/…, bench/…, or
// anything ending in .json, .yml, .sh or _test.go) must exist — from the
// root, or for a bare name like expected.json as a basename somewhere in
// the tree — and a Benchmark*/Test*/Fuzz* identifier must be declared in
// some _test.go (a trailing * makes it a prefix). A span that is a Go
// identifier or selector without _ and with an upper-case letter after
// its first character (graph.Row.Same, engine.Spatial) must have each of
// its names occur as a word in some .go file. CHANGES.md and ROADMAP.md
// are history and are not scanned.
func TestDocsNameExistingPaths(t *testing.T) {
	basenames := map[string]bool{}
	words := map[string]bool{}
	var decls []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") && d.Name() != ".github" && d.Name() != ".claude" {
			return filepath.SkipDir // .git, build and run directories
		}
		basenames[d.Name()] = true
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, w := range docGoWord.FindAll(src, -1) {
			words[string(w)] = true
		}
		if strings.HasSuffix(path, "_test.go") {
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
		// A span may wrap over a line break; a fenced block's lines are
		// blanked first so its fences cannot pair with a span's ticks.
		text := docFence.ReplaceAllStringFunc(readDoc(t, doc), func(block string) string {
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
			if docGoName.MatchString(span) && strings.IndexFunc(span[1:], unicode.IsUpper) >= 0 && !docIdent.MatchString(span) {
				for _, name := range strings.Split(span, ".") {
					if !words[name] {
						t.Errorf("%s:%d: `%s` names %s, which no .go file has", doc, line, span, name)
					}
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

// The files EXPERIMENTS.md's deterministic tables are held to, and the
// sections of the page that hold them.
const (
	goldenFile      = "internal/experiments/testdata/tables_golden.tsv"
	expectedFile    = "cmd/grpbench/expected.json"
	goldenSection   = "## The E-series"
	registrySection = "### The registry block"
)

// docTable is one table: its title (a golden "== title ==" line, or the
// heading above it on the page), its rows with the header first, and for
// a page table the line of its header.
type docTable struct {
	title string
	rows  [][]string
	line  int
}

// TestExperimentsPageMatchesSources holds EXPERIMENTS.md's deterministic
// tables to the files that pin them. Under goldenSection the page must
// carry every table of goldenFile, under its golden title, cell for cell,
// and no other. Under registrySection every cell of every table must be
// what its column computes from expectedFile's seed-1 counters of the
// workload its row names (registryCell). A mismatch names the table and
// the row and prints the block the page should hold, so re-pinning the
// page after a deliberate change is a paste.
func TestExperimentsPageMatchesSources(t *testing.T) {
	page := readDoc(t, "EXPERIMENTS.md")

	onPage := map[string]docTable{}
	for _, p := range pageTables(page, goldenSection) {
		onPage[p.title] = p
	}
	for _, g := range goldenTables(readDoc(t, goldenFile)) {
		p, ok := onPage[g.title]
		delete(onPage, g.title)
		if !ok {
			t.Errorf("EXPERIMENTS.md has no table %q under %q; from %s it reads:\n%s", g.title, goldenSection, goldenFile, markdownBlock(g))
			continue
		}
		for i := 0; i < max(len(p.rows), len(g.rows)); i++ {
			if i < len(p.rows) && i < len(g.rows) && slices.Equal(p.rows[i], g.rows[i]) {
				continue
			}
			row, line := "the header", p.line
			if i > 0 {
				row, line = fmt.Sprintf("row %d", i), p.line+1+i
			}
			if i < len(g.rows) {
				row += " (" + strings.Join(g.rows[i], " | ") + ")"
			}
			t.Errorf("EXPERIMENTS.md:%d: %s, %s differs from %s; the table should read:\n%s", line, g.title, row, goldenFile, markdownBlock(g))
			break
		}
	}
	for title, p := range onPage {
		t.Errorf("EXPERIMENTS.md:%d: table %q under %q is not in %s", p.line, title, goldenSection, goldenFile)
	}

	var pinned map[string]map[string]struct {
		Rounds   float64            `json:"rounds"`
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(readDoc(t, expectedFile)), &pinned); err != nil {
		t.Fatal(err)
	}
	tables := pageTables(page, registrySection)
	if len(tables) == 0 {
		t.Errorf("EXPERIMENTS.md has no table under %q", registrySection)
	}
	for _, p := range tables {
		head := p.rows[0]
		want := docTable{rows: [][]string{head}}
		for _, row := range p.rows[1:] {
			name := strings.Trim(row[0], "`")
			seed, ok := pinned[name]["1"]
			if !ok {
				t.Errorf("EXPERIMENTS.md:%d: registry-block row %q names no workload of %s", p.line, row[0], expectedFile)
				want.rows = append(want.rows, row)
				continue
			}
			cells := []string{row[0]}
			for _, h := range head[1:] {
				cell, ok := registryCell(h, seed.Counters, seed.Rounds)
				if !ok {
					t.Errorf("EXPERIMENTS.md:%d: registry-block column %s computes nothing from %s", p.line, h, expectedFile)
				}
				cells = append(cells, cell)
			}
			want.rows = append(want.rows, cells)
		}
		for i, row := range p.rows[1:] {
			if !slices.Equal(row, want.rows[i+1]) {
				t.Errorf("EXPERIMENTS.md:%d: registry-block table (%s), row %s differs from %s → %s → \"1\" → counters; the table should read:\n%s",
					p.line+2+i, strings.Join(head[1:], ", "), row[0], expectedFile, strings.Trim(row[0], "`"), markdownBlock(want))
				break
			}
		}
	}
}

// registryCell is the figure a registry-block column shows for one
// workload's pinned counters c over its rounds: "`k`" the counter k;
// "`wakes_x` %" and "`skips_x` %" its share of computes_run and of
// computes_skipped; "`k` / round" k over the run's rounds; and the named
// whole-run shares below, whose formulas are grpbench's for the traced
// window (cmd/grpbench/spec.go).
func registryCell(head string, c map[string]float64, rounds float64) (string, bool) {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	shares := map[string]float64{
		"skip share":            ratio(c["computes_skipped"], c["computes_run"]+c["computes_skipped"]),
		"memo share":            ratio(c["skips_memo"], c["computes_run"]+c["computes_skipped"]),
		"elided share":          ratio(c["deliveries_elided"], c["deliveries"]),
		"msg cache hit share":   ratio(c["msg_cache_hits"], c["messages_sent"]),
		"recv cache hit share":  ratio(c["recv_cache_hits"], c["recv_cache_hits"]+c["recv_row_hits"]+c["recv_row_refills"]+c["recv_rebuilds"]),
		"full-graph tick share": ratio(c["graph_full_rounds"], c["ticks"]),
		"frames elided share":   ratio(c["boundary_frames_elided"], c["boundary_frames"]+c["boundary_frames_elided"]),
	}
	if s, ok := shares[head]; ok {
		return strconv.FormatFloat(s, 'f', 4, 64), true
	}
	name, unit, _ := strings.Cut(head, "` ")
	name = strings.Trim(name, "`")
	v, ok := c[name]
	switch {
	case !ok:
		return "", false
	case head == "`"+name+"`":
		return grouped(v, 0), true
	case unit == "/ round":
		return grouped(v/rounds, 1), true
	case unit == "%" && strings.HasPrefix(name, "wakes_"):
		return strconv.FormatFloat(100*ratio(v, c["computes_run"]), 'f', 1, 64), true
	case unit == "%" && strings.HasPrefix(name, "skips_"):
		return strconv.FormatFloat(100*ratio(v, c["computes_skipped"]), 'f', 1, 64), true
	}
	return "", false
}

// grouped formats v with dec decimals and its integer digits in groups
// of three, as the page writes counts: 1 478 498.
func grouped(v float64, dec int) string {
	s := strconv.FormatFloat(v, 'f', dec, 64)
	whole, frac, _ := strings.Cut(s, ".")
	var b strings.Builder
	for i, d := range whole {
		if i > 0 && (len(whole)-i)%3 == 0 && len(whole) > 4 {
			b.WriteByte(' ')
		}
		b.WriteRune(d)
	}
	if frac != "" {
		b.WriteString("." + frac)
	}
	return b.String()
}

// goldenTables parses the E-table golden: a "== title ==" line, then the
// table as TSV, header first.
func goldenTables(src string) []docTable {
	var out []docTable
	for _, line := range strings.Split(src, "\n") {
		if title, ok := strings.CutPrefix(line, "== "); ok {
			out = append(out, docTable{title: strings.TrimSuffix(title, " ==")})
		} else if line != "" && len(out) > 0 {
			out[len(out)-1].rows = append(out[len(out)-1].rows, strings.Split(line, "\t"))
		}
	}
	return out
}

// pageTables returns the markdown tables of the page's section that
// starts at the heading line beginning with heading and runs to the next
// heading of its level or above, each titled by the "### " heading above
// it; separator rows are dropped.
func pageTables(page, heading string) []docTable {
	level := strings.Index(heading, " ") + 1 // "## " or "### "
	var out []docTable
	in, title, inTable := false, "", false
	for i, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "#") {
			if in && strings.Index(line, " ")+1 <= level {
				break
			}
			in = in || strings.HasPrefix(line, heading)
			title = strings.TrimPrefix(line, "### ")
		}
		if !in || !strings.HasPrefix(line, "|") {
			inTable = false
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for j := range cells {
			cells[j] = strings.TrimSpace(cells[j])
		}
		if strings.Trim(cells[0], "-:") == "" {
			continue
		}
		if !inTable {
			out = append(out, docTable{title: title, line: i + 1})
			inTable = true
		}
		out[len(out)-1].rows = append(out[len(out)-1].rows, cells)
	}
	return out
}

// markdownBlock renders t as the page writes it.
func markdownBlock(t docTable) string {
	var b strings.Builder
	for i, row := range t.rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
		if i == 0 {
			b.WriteString(strings.Repeat("|---", len(row)) + "|\n")
		}
	}
	return b.String()
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}
