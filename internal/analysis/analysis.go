package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics ("detrand", ...).
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Suppress lists the //scip: comment tokens that silence this
	// analyzer's diagnostics (e.g. "ordered-ok"). A suppression comment
	// must carry a justification after the token.
	Suppress []string
	// Run inspects the package and reports diagnostics via pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the driver's file:line: analyzer: message format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf resolves an identifier to its object, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Info.ObjectOf(id) }

// runWith executes one analyzer over one package of mod and returns the
// surviving diagnostics: findings on lines covered by a justified
// suppression comment in mod's shared set are dropped, and suppression
// comments without a justification are themselves reported (an
// exception must say why it is safe).
func runWith(a *Analyzer, pkg *Package, mod *Module) []Diagnostic {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
	}
	a.Run(pass)
	sup := mod.Sups(pkg)
	var out []Diagnostic
	for _, d := range pass.diags {
		if s := sup.match(a, d.Pos); s != nil {
			s.used = true
			if s.justification == "" {
				d.Message = fmt.Sprintf("suppression //scip:%s needs a justification (%s)", s.token, d.Message)
				out = append(out, d)
			}
			continue
		}
		out = append(out, d)
	}
	sortDiags(out)
	return out
}

// AuditName labels the suppression-audit diagnostics (stale and unknown
// //scip: tokens). The audit is not itself suppressible.
const AuditName = "supaudit"

// VetModule is the driver entry point: it runs every applicable analyzer
// over every package of mod, sharing one suppression set per package so
// a comment consumed by any analyzer counts as used, then audits the
// suppressions — a token no analyzer knows is reported as unknown, and a
// known suppression that silenced nothing is reported as stale. The
// diagnostics come back merged in file/line order.
func VetModule(analyzers []*Analyzer, mod *Module) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range mod.Packages {
		for _, a := range analyzers {
			if !Applies(a, pkg.Path) {
				continue
			}
			out = append(out, runWith(a, pkg, mod)...)
		}
	}
	// Audit after every analyzer has run: used-marking must be complete.
	// A token is unknown when NO registered analyzer claims it; it is
	// stale only when its analyzer actually ran this invocation and still
	// consumed nothing (a -run subset must not flag the other analyzers'
	// suppressions).
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		for _, tok := range a.Suppress {
			known[tok] = true
		}
	}
	ran := make(map[string]bool)
	for _, a := range analyzers {
		for _, tok := range a.Suppress {
			ran[tok] = true
		}
	}
	for _, pkg := range mod.Packages {
		out = append(out, auditSuppressions(pkg, mod.Sups(pkg), known, ran)...)
	}
	sortDiags(out)
	return out
}

// auditSuppressions reports stale and unknown //scip: comments in one
// package. Every //scip: comment is a suppression, so each must name a
// registered token and, when its analyzer ran, have silenced something.
func auditSuppressions(pkg *Package, sup suppressionSet, known, ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, lines := range sup.byFileLine {
		for _, sups := range lines {
			for _, s := range sups {
				var msg string
				switch {
				case !known[s.token]:
					msg = fmt.Sprintf("unknown //scip:%s: no analyzer recognises this token (known suppressions end in -ok)", s.token)
				case ran[s.token] && !s.used:
					msg = fmt.Sprintf("stale suppression //scip:%s: it no longer silences any finding; delete it", s.token)
				default:
					continue
				}
				//scip:ordered-ok collect-only: diagnostics carry their own position and VetModule sorts the merged output by file/line
				out = append(out, Diagnostic{
					Pos:      token.Position{Filename: s.file, Line: s.line},
					Analyzer: AuditName,
					Message:  msg,
				})
			}
		}
	}
	return out
}

// sortDiags orders diagnostics by file, line, then analyzer name.
func sortDiags(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
}

// suppression is one //scip: comment in a file.
type suppression struct {
	file          string
	line          int
	token         string
	justification string
	used          bool
}

type suppressionSet struct {
	// byFileLine maps file -> line -> suppressions ending on that line.
	byFileLine map[string]map[int][]*suppression
}

// match returns the suppression covering a diagnostic of analyzer a at
// pos: a //scip: comment with one of the analyzer's tokens on the same
// line or the line directly above.
func (s suppressionSet) match(a *Analyzer, pos token.Position) *suppression {
	lines := s.byFileLine[pos.Filename]
	if lines == nil {
		return nil
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, sup := range lines[line] {
			for _, tok := range a.Suppress {
				if sup.token == tok {
					return sup
				}
			}
		}
	}
	return nil
}

// suppressionPrefix introduces an in-code exception to an analyzer.
const suppressionPrefix = "scip:"

// collectSuppressions scans the files' comments for //scip:<token>
// markers.
func collectSuppressions(fset *token.FileSet, files []*ast.File) suppressionSet {
	set := suppressionSet{byFileLine: make(map[string]map[int][]*suppression)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(text, "/*")
				text = strings.TrimSuffix(text, "*/")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, suppressionPrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, suppressionPrefix)
				tok, just, _ := strings.Cut(rest, " ")
				if tok == "" {
					continue
				}
				pos := fset.Position(c.End())
				lines := set.byFileLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*suppression)
					set.byFileLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], &suppression{
					file:          pos.Filename,
					line:          pos.Line,
					token:         tok,
					justification: strings.TrimSpace(just),
				})
			}
		}
	}
	return set
}
