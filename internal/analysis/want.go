package analysis

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file is the repository's stdlib-only stand-in for x/tools'
// analysistest: fixture packages under testdata/ carry
//
//	// want "regexp" "regexp"
//
// comments on the lines where an analyzer must report, and CheckFixture
// verifies the produced diagnostics against them — every expectation
// must be matched by a diagnostic on its line, and every diagnostic must
// be expected. A fixture with no want comments therefore asserts the
// analyzer stays silent on clean code.

// Reporter receives fixture mismatches; *testing.T satisfies it.
type Reporter interface {
	Errorf(format string, args ...any)
}

// wantPrefix introduces an expectation comment.
const wantPrefix = "want"

// ParseWant parses the text of one comment (without the // marker). It
// returns the expected diagnostic regexps and ok=true when the comment
// is a want comment; a malformed want comment returns an error. Non-want
// comments return ok=false.
func ParseWant(text string) (patterns []string, ok bool, err error) {
	s := strings.TrimSpace(text)
	rest, found := strings.CutPrefix(s, wantPrefix)
	if !found || (rest != "" && rest[0] != ' ' && rest[0] != '\t' && rest[0] != '"') {
		// Not a want comment (e.g. "wanted" prose).
		return nil, false, nil
	}
	for {
		rest = strings.TrimLeft(rest, " \t")
		if rest == "" {
			break
		}
		if rest[0] != '"' {
			return nil, true, fmt.Errorf("want comment: expected quoted regexp, got %q", rest)
		}
		lit, remainder, err := cutStringLit(rest)
		if err != nil {
			return nil, true, err
		}
		pat, err := strconv.Unquote(lit)
		if err != nil {
			return nil, true, fmt.Errorf("want comment: bad string %s: %v", lit, err)
		}
		if _, err := regexp.Compile(pat); err != nil {
			return nil, true, fmt.Errorf("want comment: bad regexp %q: %v", pat, err)
		}
		patterns = append(patterns, pat)
		rest = remainder
	}
	if len(patterns) == 0 {
		return nil, true, fmt.Errorf("want comment carries no quoted regexp")
	}
	return patterns, true, nil
}

// cutStringLit splits a leading Go double-quoted string literal off s.
func cutStringLit(s string) (lit, rest string, err error) {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++ // skip the escaped byte
		case '"':
			return s[:i+1], s[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("want comment: unterminated string in %q", s)
}

// lockedImporter serialises a go/importer "source" importer. That
// importer records in-progress packages in an unguarded map, so two
// goroutines importing the same standard-library package take each
// other's marker for an import cycle ("could not import sync ... import
// cycle through package runtime"). It never calls back through this
// wrapper, so a plain mutex cannot self-deadlock.
type lockedImporter struct {
	mu  sync.Mutex
	imp types.ImporterFrom
}

func (l *lockedImporter) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *lockedImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.imp.ImportFrom(path, dir, mode)
}

// fixtureImporterOnce shares one source importer across fixtures so the
// standard library is type-checked once per test process; fixtures run
// as parallel subtests, hence the lock.
var (
	fixtureImporterOnce sync.Once
	fixtureFset         *token.FileSet
	fixtureImporter     types.Importer
)

func fixtureEnv() (*token.FileSet, types.Importer) {
	fixtureImporterOnce.Do(func() {
		fixtureFset = token.NewFileSet()
		fixtureImporter = &lockedImporter{
			imp: importer.ForCompiler(fixtureFset, "source", nil).(types.ImporterFrom),
		}
	})
	return fixtureFset, fixtureImporter
}

// CheckFixture type-checks the fixture package in dir as
// fixture/internal/<dir base> — an internal package, so the path-scoped
// detrand covers it — runs the analyzers over it through VetModule, the
// driver's own entry point (suppression handling and the
// stale-suppression audit included, so fixtures can assert that //scip:
// comments silence findings), and verifies the diagnostics against the
// want comments.
func CheckFixture(r Reporter, analyzers []*Analyzer, dir string) {
	fset, imp := fixtureEnv()
	pkg, err := CheckDir(fset, dir, "fixture/internal/"+filepath.Base(dir), imp)
	if err != nil {
		r.Errorf("loading fixture %s: %v", dir, err)
		return
	}
	checkWants(r, dir, fset, pkg, VetModule(analyzers, NewModule([]*Package{pkg})))
}

// checkWants verifies diagnostics against the want comments of pkg's
// files: every expectation must be matched by a diagnostic on its line,
// and every diagnostic must be expected.
func checkWants(r Reporter, dir string, fset *token.FileSet, pkg *Package, diags []Diagnostic) {
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				pats, ok, err := ParseWant(text)
				if err != nil {
					pos := fset.Position(c.Pos())
					r.Errorf("%s:%d: %v", pos.Filename, pos.Line, err)
					continue
				}
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				wants[k] = append(wants[k], pats...)
			}
		}
	}
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		pats := wants[k]
		matched := -1
		for i, pat := range pats {
			if regexp.MustCompile(pat).MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			r.Errorf("%s: unexpected diagnostic: %s (analyzer %s)", dir, d, d.Analyzer)
			continue
		}
		wants[k] = append(pats[:matched], pats[matched+1:]...)
		if len(wants[k]) == 0 {
			delete(wants, k)
		}
	}
	// Report unmatched expectations in file/line order, not map order.
	var missed []key
	for k := range wants {
		//scip:ordered-ok collect-then-sort: the slice is sorted immediately below, erasing map order
		missed = append(missed, k)
	}
	sort.Slice(missed, func(i, j int) bool {
		if missed[i].file != missed[j].file {
			return missed[i].file < missed[j].file
		}
		return missed[i].line < missed[j].line
	})
	for _, k := range missed {
		for _, pat := range wants[k] {
			r.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, pat)
		}
	}
}
