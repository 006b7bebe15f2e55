package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked, non-test package of the module.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the package's directory on disk.
	Dir  string
	Fset *token.FileSet
	// Files are the parsed non-test source files.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader resolves and type-checks packages of one module. Analyzers see
// only non-test files: the invariants guard production behaviour, and
// tests legitimately use wall clocks and throwaway RNGs.
//
// A Loader is not safe for concurrent use — its memo maps and its source
// importer are unguarded — and nothing shares one: every caller builds
// its own and loads on one goroutine, and VetModule starts none.
type Loader struct {
	// Root is the module root (the directory holding go.mod).
	Root string
	// ModulePath is the module path declared in go.mod.
	ModulePath string
	Fset       *token.FileSet

	pkgs     map[string]*Package // by import path
	checking map[string]bool     // import cycle detection
	fallback types.ImporterFrom  // stdlib, resolved from source
}

// NewLoader locates the module root at or above dir.
func NewLoader(dir string) (*Loader, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod at or above %s", dir)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		Root:       root,
		ModulePath: modPath,
		Fset:       fset,
		pkgs:       make(map[string]*Package),
		checking:   make(map[string]bool),
	}
	// The "source" importer type-checks dependencies from GOROOT source,
	// so the driver needs no export data and no x/tools.
	l.fallback = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// Load resolves the patterns (import paths relative to the module root;
// "./..." or "..." expands to every package in the module, and a
// "dir/..." suffix expands to every package under dir) and returns
// the matched packages, type-checked, sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			all, err := l.moduleDirs()
			if err != nil {
				return nil, err
			}
			for _, d := range all {
				dirs[d] = true
			}
		case strings.HasSuffix(pat, "/..."):
			base := filepath.Join(l.Root, l.relDir(strings.TrimSuffix(pat, "/...")))
			all, err := l.moduleDirs()
			if err != nil {
				return nil, err
			}
			matched := false
			for _, d := range all {
				if d == base || strings.HasPrefix(d, base+string(filepath.Separator)) {
					dirs[d] = true
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("analysis: pattern %s matched no packages", pat)
			}
		default:
			dirs[filepath.Join(l.Root, l.relDir(pat))] = true
		}
	}
	// Load in sorted directory order (not map order) so packages are
	// checked — and any type-check error is reported — deterministically.
	sorted := make([]string, 0, len(dirs))
	for dir := range dirs {
		//scip:ordered-ok collect-then-sort: the slice is sorted immediately below, erasing map order
		sorted = append(sorted, dir)
	}
	sort.Strings(sorted)
	var out []*Package
	for _, dir := range sorted {
		ok, err := hasGoFiles(dir)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// relDir normalises a package pattern ("./internal/cache", an import
// path, or "") to a directory path relative to the module root.
func (l *Loader) relDir(pat string) string {
	rel := strings.TrimPrefix(pat, "./")
	rel = strings.TrimPrefix(rel, l.ModulePath)
	rel = strings.TrimPrefix(rel, "/")
	if rel == "" {
		rel = "."
	}
	return rel
}

// moduleDirs returns every directory under the root that contains
// non-test Go files, skipping testdata, vendor, hidden and underscore
// directories.
func (l *Loader) moduleDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ok, err := hasGoFiles(path)
		if err != nil {
			return err
		}
		if ok {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

func hasGoFiles(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		if !e.IsDir() && isSourceFile(e.Name()) {
			return true, nil
		}
	}
	return false, nil
}

// isSourceFile reports whether name is a non-test Go source file.
func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") &&
		!strings.HasPrefix(name, "_")
}

// importPathFor maps a module directory to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// loadDir parses and type-checks the package in dir (memoised).
func (l *Loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	pkg, err := CheckDir(l.Fset, dir, path, l)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Import implements types.Importer: module-internal paths are
// type-checked from source in their directory; everything else (the
// standard library) is delegated to the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(path, l.ModulePath)
		rel = strings.TrimPrefix(rel, "/")
		pkg, err := l.loadDir(filepath.Join(l.Root, rel))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.fallback.Import(path)
}

// CheckDir parses the non-test Go files of one directory and type-checks
// them as the package at importPath, resolving imports through imp. It is
// the loader's workhorse and is used directly by the fixture harness,
// which checks testdata directories that are not part of the module.
func CheckDir(fset *token.FileSet, dir, importPath string, imp types.Importer) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !isSourceFile(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			// Parse errors carry their own file:line; prefix the package so
			// multi-package loads name the failing package too.
			return nil, fmt.Errorf("analysis: package %s: %w", importPath, err)
		}
		if excludedByBuildTags(f) {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	// Collect every type error so the report can carry an exact position:
	// conf.Check alone returns only the first error, and when that error
	// surfaces through a dependency import it reaches the driver with no
	// file context at all.
	var terrs []types.Error
	conf := types.Config{Importer: imp, Error: func(err error) {
		if te, ok := err.(types.Error); ok && !te.Soft {
			terrs = append(terrs, te)
		}
	}}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if len(terrs) > 0 {
		te := terrs[0]
		extra := ""
		if n := len(terrs); n > 1 {
			extra = fmt.Sprintf(" (and %d more)", n-1)
		}
		return nil, fmt.Errorf("analysis: package %s: %s: %s%s",
			importPath, te.Fset.Position(te.Pos), te.Msg, extra)
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: package %s: %w", importPath, err)
	}
	return &Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// excludedByBuildTags reports whether f's //go:build (or legacy +build)
// constraint excludes it from the default, tag-less build configuration —
// the configuration the analyzers model, matching plain `go vet ./...`.
// Files behind opt-in tags (e.g. the cache package's scipdebug handle
// guards) would otherwise collide with their default-configuration
// counterparts during type checking.
func excludedByBuildTags(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) && !constraint.IsPlusBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue
			}
			return !expr.Eval(defaultBuildTag)
		}
	}
	return false
}

// defaultBuildTag evaluates one constraint tag for the default
// configuration: the host OS/arch and release tags hold, custom tags do
// not.
func defaultBuildTag(tag string) bool {
	if tag == runtime.GOOS || tag == runtime.GOARCH {
		return true
	}
	return strings.HasPrefix(tag, "go1")
}
