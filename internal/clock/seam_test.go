package clock

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// seamPackages read time only through a Clock. The peering package still
// takes a sleep function of its own and is not listed.
var seamPackages = []string{
	"../cluster/gateway",
	"../cluster/registry",
	"../cluster/chaostransport",
	"../resultcache",
	"../obs",
}

// wallClock names the time package functions that read or wait on the
// wall clock.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "AfterFunc": true,
	"Sleep": true, "NewTimer": true, "NewTicker": true, "Tick": true,
}

// TestSeamPackagesUseTheClock fails on any use of a wall-clock function of
// package time in the non-test files of seamPackages: one such call puts a
// wait back that a manual clock cannot drive.
func TestSeamPackagesUseTheClock(t *testing.T) {
	for _, dir := range seamPackages {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			checked++
			for _, use := range wallClockUses(t, path) {
				t.Errorf("%s: time.%s bypasses the clock seam", use.pos, use.name)
			}
		}
		if checked == 0 {
			t.Errorf("%s: no Go files to check", dir)
		}
	}
}

type wallClockUse struct {
	pos  token.Position
	name string
}

// wallClockUses parses one file and lists its references to wallClock
// functions through its import of package time, whatever the import's
// local name.
func wallClockUses(t *testing.T, path string) []wallClockUse {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	local := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
			local = "time"
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	if local == "" {
		return nil
	}
	var uses []wallClockUse
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); ok && x.Name == local && wallClock[sel.Sel.Name] {
			uses = append(uses, wallClockUse{fset.Position(sel.Pos()), sel.Sel.Name})
		}
		return true
	})
	return uses
}
