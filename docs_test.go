package scip_test

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// docFiles are the repository's maintained documents: every intra-repo
// link in them must resolve, both the file part and any #anchor against
// the target's headings. PAPER.md/PAPERS.md/SNIPPETS.md/ISSUE.md are
// generated inputs and not checked.
var docFiles = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	"OPERATIONS.md",
	"CLUSTER.md",
	"ROADMAP.md",
}

// TestDocsLinks fails on broken intra-repo markdown links — a missing
// target file, or an anchor no heading in the target slugs to. External
// links (with a scheme) are out of scope: the check must not depend on
// the network.
func TestDocsLinks(t *testing.T) {
	for _, doc := range docFiles {
		t.Run(doc, func(t *testing.T) {
			links, err := markdownLinks(doc)
			if err != nil {
				t.Fatal(err)
			}
			if len(links) == 0 {
				t.Logf("%s has no intra-repo links", doc)
			}
			for _, l := range links {
				checkLink(t, doc, l)
			}
		})
	}
}

// TestPackageDocs fails when a package under internal/ has no package
// comment. Every internal package documents its role, key types and
// invariants, conventionally in a doc.go; one without is invisible to
// go doc and to the next reader deciding where code belongs. Commands
// document themselves in their main file and are not checked.
func TestPackageDocs(t *testing.T) {
	err := filepath.WalkDir("internal", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		sources, documented := 0, false
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				return err
			}
			sources++
			documented = documented || f.Doc.Text() != ""
		}
		if sources > 0 && !documented {
			t.Errorf("package %s has no package comment; document it in a doc.go", dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// link is one markdown link occurrence.
type link struct {
	line   int
	target string
}

var linkRE = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// markdownLinks extracts link targets from path, skipping fenced code
// blocks (``` ... ```) where bracketed text is code, not links.
func markdownLinks(path string) ([]link, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []link
	inFence := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
			out = append(out, link{line: i + 1, target: m[1]})
		}
	}
	return out, nil
}

func checkLink(t *testing.T, doc string, l link) {
	t.Helper()
	target := l.target
	if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
		return // external
	}
	file, anchor, _ := strings.Cut(target, "#")
	if file == "" {
		file = doc // in-document anchor
	}
	file = filepath.FromSlash(file)
	if _, err := os.Stat(file); err != nil {
		t.Errorf("%s:%d: link target %q does not exist", doc, l.line, l.target)
		return
	}
	if anchor == "" {
		return
	}
	if !strings.HasSuffix(file, ".md") {
		return // anchors into non-markdown files are not checkable here
	}
	slugs, err := headingSlugs(file)
	if err != nil {
		t.Fatal(err)
	}
	if !slugs[anchor] {
		t.Errorf("%s:%d: anchor %q not found in %s (known: %s)",
			doc, l.line, "#"+anchor, file, strings.Join(sortedKeys(slugs), ", "))
	}
}

// headingSlugs returns the GitHub-style anchor slugs of every markdown
// heading in path: lowercase, spaces to hyphens, punctuation dropped,
// duplicate slugs suffixed -1, -2, ...
func headingSlugs(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	slugs := make(map[string]bool)
	counts := make(map[string]int)
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		text := strings.TrimLeft(line, "#")
		if text == "" || text[0] != ' ' {
			continue
		}
		slug := githubSlug(strings.TrimSpace(text))
		if n := counts[slug]; n > 0 {
			slugs[fmt.Sprintf("%s-%d", slug, n)] = true
		} else {
			slugs[slug] = true
		}
		counts[slug]++
	}
	return slugs, nil
}

var slugDropRE = regexp.MustCompile(`[^\p{L}\p{N} _-]`)

func githubSlug(heading string) string {
	// Strip inline code/emphasis markers, then GitHub's rule: lowercase,
	// drop punctuation, spaces become hyphens.
	s := strings.NewReplacer("`", "", "*", "", "§", "").Replace(heading)
	s = strings.ToLower(s)
	s = slugDropRE.ReplaceAllString(s, "")
	s = strings.ReplaceAll(s, " ", "-")
	return s
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
