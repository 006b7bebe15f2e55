package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural layer under the flow-aware analyzers
// (clocktaint, guardedby): a Module indexes every type-checked package
// of one load and every function declared in it, so an analyzer can
// resolve a call site to the callee's declaration in any package, and
// parses the //scip: annotations that name the invariants — locked
// preconditions and guardedby fields. Per-function effect summaries
// (clock taint, lock regions) are computed by the analyzers on top of
// this index.

// Module is the interprocedural view of one loaded package set. Build it
// once with NewModule and share it across analyzers: the function and
// annotation index are immutable after construction, and the lazily
// computed summaries are memoised on the Module.
type Module struct {
	// Packages are the loaded packages, sorted by import path.
	Packages []*Package

	// funcs indexes every function and method declared with a body in
	// the module.
	funcs  map[*types.Func]*FuncNode
	nodes  []*FuncNode // declaration order, for deterministic iteration
	byPkg  map[*Package][]*FuncNode
	fields map[*types.Var]*GuardedField

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

	// LockedField, when non-empty, is the mutex field named by a
	// //scip:locked annotation: the function's callers must hold that
	// mutex (guardedby.go checks both sides).
	LockedField string

	// clock is clocktaint's memoised per-function summary (clocktaint.go).
	clock *clockSummary
}

// Name renders a short human name: pkg.Func or (*pkg.Recv).Method.
func (n *FuncNode) Name() string { return shortFuncName(n.Fn) }

// Annotation tokens recognised in //scip: comments, beyond the
// per-analyzer suppression tokens. The stale-suppression audit treats
// these as annotations (they assert an invariant) rather than
// suppressions (they silence one), so they are never "stale".
var annotationTokens = map[string]bool{
	"locked":    true,
	"guardedby": true,
}

// NewModule indexes pkgs' functions and parses annotations.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		Packages: pkgs,
		funcs:    make(map[*types.Func]*FuncNode),
		byPkg:    make(map[*Package][]*FuncNode),
		fields:   make(map[*types.Var]*GuardedField),
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
				parseFuncAnnotations(node)
				m.funcs[obj] = node
				m.nodes = append(m.nodes, node)
				m.byPkg[pkg] = append(m.byPkg[pkg], node)
			}
		}
		m.parseGuardedFields(pkg)
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
	// Annotation: the token asserts an invariant (locked, guardedby)
	// rather than silencing a finding.
	Annotation bool
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
						Annotation:    annotationTokens[s.token],
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

// parseFuncAnnotations reads //scip: tokens from the function's doc
// comment.
func parseFuncAnnotations(node *FuncNode) {
	if node.Decl.Doc == nil {
		return
	}
	for _, c := range node.Decl.Doc.List {
		if tok, rest, ok := directive(c.Text); ok && tok == "locked" {
			field, _, _ := strings.Cut(rest, " ")
			node.LockedField = field
		}
	}
}

// directive parses one comment as a //scip:<token> directive, returning
// the token and the text after it.
func directive(text string) (tok, rest string, ok bool) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimPrefix(text, "/*")
	text = strings.TrimSuffix(text, "*/")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, suppressionPrefix) {
		return "", "", false
	}
	rest = strings.TrimPrefix(text, suppressionPrefix)
	tok, rest, _ = strings.Cut(rest, " ")
	if tok == "" {
		return "", "", false
	}
	return tok, strings.TrimSpace(rest), true
}

// GuardedField is one struct field carrying a //scip:guardedby
// annotation: every access must hold the named sibling mutex.
type GuardedField struct {
	Field *types.Var
	// MutexName is the annotated sibling field name ("mu").
	MutexName string
	// Mutex is the resolved sibling mutex field, nil if the name does
	// not resolve (guardedby reports that as a bad annotation).
	Mutex *types.Var
	// Struct is the declaring struct type's name, for messages.
	Struct string
	Pos    token.Pos
}

// parseGuardedFields scans pkg's struct declarations for
// //scip:guardedby annotations.
func (m *Module) parseGuardedFields(pkg *Package) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				name, ok := guardedAnnotation(field)
				if !ok {
					continue
				}
				for _, id := range field.Names {
					fv, ok := pkg.Info.Defs[id].(*types.Var)
					if !ok {
						continue
					}
					gf := &GuardedField{
						Field:     fv,
						MutexName: name,
						Struct:    ts.Name.Name,
						Pos:       id.Pos(),
					}
					gf.Mutex = siblingMutex(pkg, st, name)
					m.fields[fv] = gf
				}
			}
			return true
		})
	}
}

// guardedAnnotation extracts the mutex name from a field's
// //scip:guardedby doc or line comment.
func guardedAnnotation(field *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			tok, rest, ok := directive(c.Text)
			if !ok || tok != "guardedby" {
				continue
			}
			name, _, _ := strings.Cut(rest, " ")
			return name, name != ""
		}
	}
	return "", false
}

// siblingMutex resolves name to a sync.Mutex/RWMutex field of st.
func siblingMutex(pkg *Package, st *ast.StructType, name string) *types.Var {
	for _, field := range st.Fields.List {
		for _, id := range field.Names {
			if id.Name != name {
				continue
			}
			fv, ok := pkg.Info.Defs[id].(*types.Var)
			if !ok || !isMutexType(fv.Type()) {
				return nil
			}
			return fv
		}
	}
	return nil
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// GuardedFieldOf returns the guard annotation covering a field object,
// or nil.
func (m *Module) GuardedFieldOf(v *types.Var) *GuardedField { return m.fields[v] }

// GuardedFields returns every annotated field (module order is the
// package/declaration order of m.nodes' packages; callers sort output by
// position, so map order here is irrelevant to diagnostics).
func (m *Module) GuardedFields() []*GuardedField {
	out := make([]*GuardedField, 0, len(m.fields))
	for _, gf := range m.fields {
		//scip:ordered-ok collect-only: callers anchor diagnostics by token.Pos and the driver sorts them before printing
		out = append(out, gf)
	}
	return out
}

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

// exprString renders a short expression for diagnostics.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.CallExpr:
		return exprString(x.Fun) + "()"
	case *ast.UnaryExpr:
		return x.Op.String() + exprString(x.X)
	}
	return "expr"
}
