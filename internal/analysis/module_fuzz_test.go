package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// FuzzVetModule throws arbitrary source at VetModule: whatever the
// parser accepts — including ill-typed programs, which leave holes in
// the types.Info maps exactly the way a broken in-progress tree does —
// must never panic an analyzer, the suppression scan or the audit. The
// fuzzed package path ends in internal/core so the path-scoped detrand
// is exercised too.
func FuzzVetModule(f *testing.F) {
	seeds := []string{
		// Simple static calls.
		`package p

func a() int { return b() }
func b() int { return len(make([]int, 4)) }
`,
		// Interface dispatch and function values.
		`package p

type I interface{ M(int) int }

type s struct{ fn func(int) int }

func dyn(i I, st *s, n int) int { return i.M(n) + st.fn(n) }
`,
		// Mutual recursion.
		`package p

func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}
func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}
`,
		// Generics: instantiated calls.
		`package p

func id[T any](v T) T { return v }

func g() int { return id(7) }
`,
		// Clock reads (imports unresolved under the nil importer: the
		// analyzers must tolerate missing type info).
		`package p

import "time"

func now() int64 { return time.Now().UnixNano() }
`,
		// Methods without bodies, blank names, odd-but-parseable shapes.
		`package p

type T struct{}

func (T) m()
func _() {}
var x = func() {}
`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments)
		if err != nil {
			t.Skip()
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{Error: func(error) {}} // keep whatever checks
		tpkg, _ := conf.Check("fuzz/internal/core", fset, []*ast.File{file}, info)
		if tpkg == nil {
			t.Skip()
		}
		pkg := &Package{
			Path:  "fuzz/internal/core",
			Dir:   ".",
			Fset:  fset,
			Files: []*ast.File{file},
			Types: tpkg,
			Info:  info,
		}
		VetModule(Analyzers(), NewModule([]*Package{pkg})) // diagnostics are fine; panics are not
	})
}
