package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestFunctionLengthBar holds every function of the package's non-test
// files to at most 100 lines, declaration line and closing brace
// included, so that Observe stays a sequence of named phases instead of
// growing back into one body.
func TestFunctionLengthBar(t *testing.T) {
	const bar = 100
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	funcs := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				funcs++
				from, to := fset.Position(fn.Pos()), fset.Position(fn.End())
				if n := to.Line - from.Line + 1; n > bar {
					t.Errorf("%s:%d: %s is %d lines, above the bar of %d", from.Filename, from.Line, fn.Name.Name, n, bar)
				}
			}
		}
	}
	if funcs == 0 {
		t.Fatal("no function parsed: the test reads the wrong directory")
	}
}
