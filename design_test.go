package caribou

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// designIdent matches a backticked span that is a Go identifier path:
	// `Name`, `pkg.Name`, `Type.Method()`, `(*T).method`.
	designIdent = regexp.MustCompile(`^(\(\*?[A-Za-z_]\w*\)|[A-Za-z_]\w*(\(\))?)(\.[A-Za-z_]\w*(\(\))?)*$`)
	goWord      = regexp.MustCompile(`[A-Za-z_]\w*`)
)

// TestDesignNamesExist: every Go identifier DESIGN.md names in backticks
// above its appendix of retired mechanisms still occurs, by its last dotted
// component, as a word in some Go file of the module (testdata excluded).
// A deletion that leaves the design describing a function that no longer
// exists fails here.
func TestDesignNamesExist(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text, _, found := strings.Cut(string(doc), "\n## Appendix: retired mechanisms")
	if !found {
		t.Fatal(`DESIGN.md has no "## Appendix: retired mechanisms" heading`)
	}
	words := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, w := range goWord.FindAllString(string(src), -1) {
			words[w] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := strings.Split(text, "`")
	checked := 0
	for i := 1; i < len(spans); i += 2 {
		span := spans[i]
		if !designIdent.MatchString(span) {
			continue
		}
		checked++
		last := span[strings.LastIndex(span, ".")+1:]
		last = strings.Trim(strings.TrimSuffix(last, "()"), "(*)")
		if !words[last] {
			t.Errorf("DESIGN.md names `%s`, but no Go file has %q", span, last)
		}
	}
	if checked == 0 {
		t.Fatal("no backticked identifiers found in DESIGN.md")
	}
	t.Logf("%d backticked identifiers checked", checked)
}
