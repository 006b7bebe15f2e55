package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Detrand enforces seeded determinism in the replay/learning path:
// every internal package except DetrandExempt — the packages whose
// outputs must be a pure function of their inputs and seeds — may not
// draw from the process-global math/rand RNG, read the wall clock, or
// build an RNG from a hard-coded seed literal that is not threaded from
// configuration.
//
// Rationale: SCIP's MAB sampling (Algorithm 1) and the hill climber's
// random restarts (Algorithm 2) are replayed bit-for-bit across runs and
// worker counts; one ambient rand.Float64() or time.Now() in that path
// desynchronises the sampled decision stream and every figure built on
// it. Wall-clock reads that only feed wall-clock *metering* (throughput
// columns, BENCH.json timings) are legitimate and are declared with a
// //scip:wallclock-ok comment.
var Detrand = &Analyzer{
	Name:     "detrand",
	Doc:      "forbid ambient randomness and wall-clock reads in deterministic-replay packages",
	Suppress: []string{"rand-ok", "wallclock-ok"},
	Run:      runDetrand,
}

// randConstructors are the math/rand (and v2) functions that build a new
// RNG from an explicit seed; they are the only package-level rand
// functions allowed, and only with a seed threaded from configuration.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true, // takes a *Rand; the Rand carries the seed
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runDetrand(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath, ok := packageQualifier(pass, sel)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			switch pkgPath {
			case "math/rand", "math/rand/v2":
				if !randConstructors[name] {
					pass.Reportf(call.Pos(),
						"global rand.%s: draw from a seed-threaded *rand.Rand instead", name)
					return true
				}
				if name == "NewSource" || name == "NewPCG" {
					for _, arg := range call.Args {
						if isConstantLiteral(pass, arg) {
							pass.Reportf(call.Pos(),
								"rand.%s with a hard-coded seed: thread the seed from configuration (WithSeed)", name)
							break
						}
					}
				}
			case "time":
				switch name {
				case "Now", "Since", "Until":
					pass.Reportf(call.Pos(),
						"time.%s reads the wall clock in a deterministic-replay package", name)
				}
			}
			return true
		})
	}
}

// packageQualifier reports the import path of sel's qualifier when the
// qualifier is a package name (rand.Intn, time.Now).
func packageQualifier(pass *Pass, sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := pass.ObjectOf(id).(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}

// isConstantLiteral reports whether e is (or trivially folds to) an
// untyped constant written in the source, e.g. 1 or 42*7.
func isConstantLiteral(pass *Pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.UnaryExpr:
		return isConstantLiteral(pass, e.X)
	case *ast.BinaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB || e.Op == token.MUL {
			return isConstantLiteral(pass, e.X) && isConstantLiteral(pass, e.Y)
		}
	case *ast.ParenExpr:
		return isConstantLiteral(pass, e.X)
	}
	return false
}
