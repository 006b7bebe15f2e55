package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural layer under clocktaint: a Module
// indexes every type-checked package of one load and every function
// declared in it, so an analyzer can resolve a call site to the callee's
// declaration in any package, and holds each package's //scip:
// suppression set. Per-function clock summaries are computed by
// clocktaint on top of this index.

// Module is the interprocedural view of one loaded package set. Build it
// once with NewModule and share it across analyzers: the function index
// is immutable after construction, and the lazily computed summaries are
// memoised on the Module.
type Module struct {
	// Packages are the loaded packages, sorted by import path.
	Packages []*Package

	// funcs indexes every function and method declared with a body in
	// the module.
	funcs map[*types.Func]*FuncNode
	nodes []*FuncNode // declaration order, for deterministic iteration
	byPkg map[*Package][]*FuncNode

	// sups holds each package's //scip: comments. VetModule threads the
	// same set through every analyzer so a suppression consumed by one
	// analyzer (or sanctioned by clocktaint) counts as used for the
	// stale-suppression audit.
	sups map[*Package]suppressionSet

	clockOnce bool // clock summaries computed (clocktaint.go)
}

// FuncNode is one declared function or method of the module.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// clock is clocktaint's memoised per-function summary (clocktaint.go).
	clock *clockSummary
}

// NewModule indexes pkgs' functions.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		Packages: pkgs,
		funcs:    make(map[*types.Func]*FuncNode),
		byPkg:    make(map[*Package][]*FuncNode),
		sups:     make(map[*Package]suppressionSet),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Fn: obj, Decl: fd, Pkg: pkg}
				m.funcs[obj] = node
				m.nodes = append(m.nodes, node)
				m.byPkg[pkg] = append(m.byPkg[pkg], node)
			}
		}
	}
	return m
}

// Sups returns (building on first use) the //scip: comment set of pkg.
// The same set instance is shared by every analyzer run over pkg, so
// used-marking accumulates across analyzers.
func (m *Module) Sups(pkg *Package) suppressionSet {
	if s, ok := m.sups[pkg]; ok {
		return s
	}
	s := collectSuppressions(pkg.Fset, pkg.Files)
	m.sups[pkg] = s
	return s
}

// sanctioned reports whether a //scip:<token> comment covers pos in
// pkg, marking it used (the comment justifies the behaviour at pos, so
// it is live even though no diagnostic is emitted).
func (m *Module) sanctioned(pkg *Package, token string, pos token.Pos) bool {
	sup := m.Sups(pkg)
	p := pkg.Fset.Position(pos)
	lines := sup.byFileLine[p.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, s := range lines[line] {
			if s.token == token && s.justification != "" {
				s.used = true
				return true
			}
		}
	}
	return false
}

// FuncsOf returns the functions declared in pkg, in declaration order.
func (m *Module) FuncsOf(pkg *Package) []*FuncNode { return m.byPkg[pkg] }

// SuppressionInfo is one //scip: comment for the -supps inventory.
type SuppressionInfo struct {
	File          string
	Line          int
	Token         string
	Justification string
	// Used: some analyzer consumed the comment. Only meaningful after
	// VetModule has run over the module.
	Used bool
}

// SuppressionInventory lists every //scip: comment in the module, sorted
// by file and line. Run VetModule first to populate Used.
func (m *Module) SuppressionInventory() []SuppressionInfo {
	var out []SuppressionInfo
	for _, pkg := range m.Packages {
		sup := m.Sups(pkg)
		for _, lines := range sup.byFileLine {
			for _, sups := range lines {
				for _, s := range sups {
					//scip:ordered-ok collect-then-sort: the slice is sorted below, erasing map order
					out = append(out, SuppressionInfo{
						File:          s.file,
						Line:          s.line,
						Token:         s.token,
						Justification: s.justification,
						Used:          s.used,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// NodeOf returns the node for a declared module function, or nil.
func (m *Module) NodeOf(fn *types.Func) *FuncNode { return m.funcs[fn] }

// shortFuncName renders fn as pkg.Func or (*pkg.Type).Method, trimming
// the module path down to the last import-path element.
func shortFuncName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		if pkg == "" {
			return fn.Name()
		}
		return pkg + "." + fn.Name()
	}
	recv := sig.Recv().Type()
	ptr := ""
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
		ptr = "*"
	}
	name := types.TypeString(recv, func(p *types.Package) string { return p.Name() })
	if i := strings.LastIndex(name, "/"); i >= 0 {
		name = name[i+1:]
	}
	return "(" + ptr + name + ")." + fn.Name()
}

// unwrapCallFun strips parens and generic instantiation indices off a
// call's Fun expression.
func unwrapCallFun(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return e
		}
	}
}
