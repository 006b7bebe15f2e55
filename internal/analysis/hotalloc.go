package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotalloc statically backs the data plane's zero-allocation pins
// (TestAccessAllocsSteadyState, TestLRBAccessAllocsSteadyState): a
// function annotated //scip:hotpath and everything it transitively calls
// through statically resolved edges must be allocation-free. The hot set
// stops at //scip:coldpath boundaries (intentionally allocating slow
// paths), and individual sites that are allocation-free in steady state
// — pooled buffers that grow only during warmup, error paths that box
// only on failure — are declared with a //scip:alloc-ok comment carrying
// the justification. The roots are the policy data plane (shard.Cache,
// cache.QueueCache, core.SCIP, lrb.LRB, the cluster ring and sketch);
// the HTTP serving path is not one: it allocates per request by way of
// net/http and is under 3 % of a served request (DESIGN.md §9).
//
// Flagged sites: make/new, append — except the self-append form
// x = append(x, ...) (including x = append(x[:k], ...)), which is the
// amortised pooled-buffer pattern the allocation tests measure as
// steady-state-free: the backing array grows to a high-water mark and is
// then reused — slice/map composite literals and &T{} literals, string
// concatenation, string<->[]byte/[]rune conversions, interface boxing
// (conversions, call arguments, assignments and returns that wrap a
// concrete non-pointer value in an interface), closure literals, go
// statements, calls to external functions not on the allocation-free
// allowlist, and dynamically dispatched calls (interface methods,
// function values) whose callee cannot be traversed. Map writes are
// deliberately not flagged: inserting into a pre-sized map is
// steady-state allocation-free and the runtime growth case is covered by
// the allocation tests.
var Hotalloc = &Analyzer{
	Name:     "hotalloc",
	Doc:      "forbid allocation in //scip:hotpath functions and their transitive callees",
	Suppress: []string{"alloc-ok"},
	Run:      runHotalloc,
}

func runHotalloc(pass *Pass) {
	hot := pass.Mod.HotSet()
	for _, node := range pass.Mod.FuncsOf(pass.P) {
		trace, ok := hot[node]
		if !ok {
			continue
		}
		checkHotFunc(pass, node, trace)
	}
}

// hotWhere renders the hot-set provenance for diagnostics: "" for a
// root, " (hot via <caller>, root <root>)" for a transitive callee.
func hotWhere(node *FuncNode, trace *hotTrace) string {
	if trace.via == nil {
		return ""
	}
	if trace.via == trace.root {
		return " (hot via root " + trace.root.Name() + ")"
	}
	return " (hot via " + trace.via.Name() + ", root " + trace.root.Name() + ")"
}

// checkHotFunc reports every allocation site in one hot function.
func checkHotFunc(pass *Pass, node *FuncNode, trace *hotTrace) {
	where := hotWhere(node, trace)
	info := node.Pkg.Info

	// Call edges first: they were classified at module-build time.
	for _, ext := range node.External {
		if allowedExternal(ext.Fn) {
			continue
		}
		pass.Reportf(ext.Call.Pos(), "call to %s may allocate%s", shortFuncName(ext.Fn), where)
	}
	for _, dyn := range node.Dynamic {
		pass.Reportf(dyn.Call.Pos(), "dynamic call (%s) cannot be proven allocation-free%s", dyn.Desc, where)
	}
	// Interface boxing at statically resolved call arguments.
	for _, e := range node.Calls {
		checkCallBoxing(pass, info, e.Call, e.Callee.Fn, where)
	}
	for _, ext := range node.External {
		checkCallBoxing(pass, info, ext.Call, ext.Fn, where)
	}

	selfAppends := collectSelfAppends(node.Decl.Body)
	results := node.Decl.Type.Results
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "func literal allocates a closure%s", where)
			return false // sites inside run on the closure's schedule, not this path
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement allocates a goroutine%s", where)
		case *ast.CompositeLit:
			checkCompositeLit(pass, info, n, where)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&composite literal escapes to the heap%s", where)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n)) {
				pass.Reportf(n.Pos(), "string concatenation allocates%s", where)
			}
		case *ast.AssignStmt:
			checkHotAssign(pass, info, n, where)
		case *ast.ReturnStmt:
			checkReturnBoxing(pass, info, n, results, where)
		case *ast.CallExpr:
			checkHotCall(pass, info, n, selfAppends, where)
		}
		return true
	})
}

// collectSelfAppends returns the append calls of the amortised
// x = append(x, ...) form (the slice is written back to the expression it
// grew from, possibly resliced: x = append(x[:k], ...)). These reach a
// high-water capacity and then stop allocating, which is exactly the
// steady state the runtime allocation tests pin at 0 allocs/op.
func collectSelfAppends(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Rhs {
			rhs := as.Rhs[i]
			// buf = append(buf, 0)[:n] still writes the grown slice back.
			if sl, ok := rhs.(*ast.SliceExpr); ok {
				rhs = sl.X
			}
			call, ok := rhs.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			if builtinName(unwrapCallFun(call.Fun)) != "append" {
				continue
			}
			base := call.Args[0]
			for {
				if sl, ok := base.(*ast.SliceExpr); ok {
					base = sl.X
					continue
				}
				break
			}
			if exprString(base) != "" && exprString(base) == exprString(as.Lhs[i]) {
				out[call] = true
			}
		}
		return true
	})
	return out
}

// checkCompositeLit flags slice and map literals; struct literals by
// value live on the stack and are allowed (taking their address is
// flagged separately).
func checkCompositeLit(pass *Pass, info *types.Info, lit *ast.CompositeLit, where string) {
	t := info.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		pass.Reportf(lit.Pos(), "slice literal allocates%s", where)
	case *types.Map:
		pass.Reportf(lit.Pos(), "map literal allocates%s", where)
	}
}

// checkHotCall flags allocating builtins and conversions. Static,
// external and dynamic calls are handled from the call-graph edges.
func checkHotCall(pass *Pass, info *types.Info, call *ast.CallExpr, selfAppends map[*ast.CallExpr]bool, where string) {
	fun := unwrapCallFun(call.Fun)
	if tv, ok := info.Types[fun]; ok {
		if tv.IsType() {
			checkConversion(pass, info, call, where)
			return
		}
		if tv.IsBuiltin() {
			name := builtinName(fun)
			switch name {
			case "make":
				pass.Reportf(call.Pos(), "make allocates%s", where)
			case "new":
				pass.Reportf(call.Pos(), "new allocates%s", where)
			case "append":
				if !selfAppends[call] {
					pass.Reportf(call.Pos(), "append may grow its backing array%s", where)
				}
			}
		}
	}
}

// builtinName returns the name of a builtin call's function expression.
func builtinName(fun ast.Expr) string {
	if id, ok := fun.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// checkConversion flags conversions that copy or box: string<->[]byte,
// string<->[]rune, and conversion of a concrete non-pointer value to an
// interface type.
func checkConversion(pass *Pass, info *types.Info, call *ast.CallExpr, where string) {
	if len(call.Args) != 1 {
		return
	}
	to := info.TypeOf(call.Fun)
	from := info.TypeOf(call.Args[0])
	if to == nil || from == nil {
		return
	}
	if isStringType(to) && isByteOrRuneSlice(from) {
		pass.Reportf(call.Pos(), "[]byte-to-string conversion copies%s", where)
		return
	}
	if isStringType(from) && isByteOrRuneSlice(to) {
		pass.Reportf(call.Pos(), "string-to-slice conversion copies%s", where)
		return
	}
	if boxes(from, to) {
		pass.Reportf(call.Pos(), "conversion to %s boxes a %s%s", to.String(), from.String(), where)
	}
}

// checkCallBoxing flags arguments implicitly boxed into interface
// parameters of a resolved callee.
func checkCallBoxing(pass *Pass, info *types.Info, call *ast.CallExpr, callee *types.Func, where string) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if boxes(info.TypeOf(arg), pt) {
			pass.Reportf(arg.Pos(), "argument boxes a %s into %s%s", info.TypeOf(arg).String(), pt.String(), where)
		}
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= params.Len() {
		// The variadic slice itself is allocated per call.
		pass.Reportf(call.Pos(), "variadic call to %s allocates the argument slice%s", shortFuncName(callee), where)
	}
}

// checkHotAssign flags string += and interface boxing on assignment.
func checkHotAssign(pass *Pass, info *types.Info, as *ast.AssignStmt, where string) {
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 && isStringType(info.TypeOf(as.Lhs[0])) {
		pass.Reportf(as.Pos(), "string concatenation allocates%s", where)
		return
	}
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		if boxes(info.TypeOf(as.Rhs[i]), info.TypeOf(as.Lhs[i])) {
			pass.Reportf(as.Rhs[i].Pos(), "assignment boxes a %s into %s%s",
				info.TypeOf(as.Rhs[i]).String(), info.TypeOf(as.Lhs[i]).String(), where)
		}
	}
}

// checkReturnBoxing flags returning a concrete non-pointer value as an
// interface result (the classic escaping error box).
func checkReturnBoxing(pass *Pass, info *types.Info, ret *ast.ReturnStmt, results *ast.FieldList, where string) {
	if results == nil || len(ret.Results) == 0 {
		return
	}
	var resTypes []types.Type
	for _, f := range results.List {
		t := info.TypeOf(f.Type)
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		for j := 0; j < n; j++ {
			resTypes = append(resTypes, t)
		}
	}
	if len(ret.Results) != len(resTypes) {
		return // return f() with multiple results: boxing happened at f's return
	}
	for i, e := range ret.Results {
		if boxes(info.TypeOf(e), resTypes[i]) {
			pass.Reportf(e.Pos(), "return boxes a %s into %s%s",
				info.TypeOf(e).String(), resTypes[i].String(), where)
		}
	}
}

// boxes reports whether assigning a value of type from to a location of
// type to wraps a concrete value in an interface in a way that can heap
// allocate: to is an interface, from is a concrete type that is neither
// a pointer nor itself an interface nil. Pointers (and anything
// word-sized the runtime can store directly) still allocate for
// non-pointer layouts, so only pointer kinds are exempt.
func boxes(from, to types.Type) bool {
	if from == nil || to == nil {
		return false
	}
	if !types.IsInterface(to) {
		return false
	}
	if types.IsInterface(from) {
		return false // interface-to-interface re-wraps the same box
	}
	switch from.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Signature:
		return false // pointer-shaped: stored directly in the interface word
	case *types.Basic:
		if b, ok := from.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			return false
		}
	}
	return true
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// allocFreePkgs are external packages whose exported functions do not
// heap-allocate (or allocate only on paths the runtime tests pin at 0
// allocs/op anyway).
var allocFreePkgs = map[string]bool{
	"sync":         true,
	"sync/atomic":  true,
	"math":         true,
	"math/bits":    true,
	"unsafe":       true,
	"math/rand":    true,
	"math/rand/v2": true,
	"sort":         false, // sort.Slice boxes; sort.Search is fine but rare on hot paths
}

// stringsAllocFree are the strings-package functions that only scan their
// arguments (search/compare), never building a new string.
var stringsAllocFree = map[string]bool{
	"IndexByte": true, "Index": true, "IndexRune": true, "LastIndexByte": true,
	"Contains": true, "ContainsRune": true, "HasPrefix": true, "HasSuffix": true,
	"EqualFold": true, "Compare": true, "Count": true, "Cut": true,
}

// timeAllocMethods are the time.Time/time.Duration methods that do
// allocate (formatting); everything else on those types is arithmetic.
var timeAllocMethods = map[string]bool{
	"String":       true,
	"Format":       true,
	"AppendFormat": true,
	"GoString":     true,
	"MarshalJSON":  true,
	"MarshalText":  true,
}

// allowedExternal reports whether a call to fn is accepted in a hot path
// without a suppression.
func allowedExternal(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return true // error.Error etc. surface as dynamic calls, not here
	}
	switch path := pkg.Path(); path {
	case "time":
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			return !timeAllocMethods[fn.Name()]
		}
		switch fn.Name() {
		case "Now", "Since", "Until":
			return true
		}
		return false
	case "strconv":
		return strings.HasPrefix(fn.Name(), "Append") ||
			strings.HasPrefix(fn.Name(), "Parse") || fn.Name() == "Atoi"
	case "strings":
		return stringsAllocFree[fn.Name()]
	default:
		return allocFreePkgs[path]
	}
}
