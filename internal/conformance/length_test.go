package conformance

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestFunctionLengthBar holds every function of the module's non-test
// files to at most 100 lines, declaration line and closing brace
// included, so that the long procedures — the compute rules, the
// tracker's phases, the engine's phases — stay sequences of named steps
// instead of growing back into one body. cmd/grpbench, the benchmark, is
// exempt: it may not change with the code it measures.
func TestFunctionLengthBar(t *testing.T) {
	const bar = 100
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	funcs := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") || path == filepath.Join(root, "cmd", "grpbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				funcs++
				from, to := fset.Position(fn.Pos()), fset.Position(fn.End())
				if n := to.Line - from.Line + 1; n > bar {
					t.Errorf("%s:%d: %s is %d lines, above the bar of %d", from.Filename, from.Line, fn.Name.Name, n, bar)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if funcs < 500 {
		t.Fatalf("only %d functions parsed: the test walks the wrong tree", funcs)
	}
}
