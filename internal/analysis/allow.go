package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// allowCheck is the reserved name of the meta-check that validates the
// suppression comments themselves.
const allowCheck = "allow"

// allowPrefix introduces a suppression comment:
//
//	//caribou:allow <check> <reason>
//
// A well-formed allow comment suppresses diagnostics for <check> on its
// own line and on the line directly below it (so it works both as a
// trailing comment and as a standalone comment above the flagged line).
// The reason is mandatory and is what makes suppressions auditable: a
// comment that names no check, names an unknown check, or carries no
// reason is reported under the "allow" check and suppresses nothing. A
// well-formed allow that suppresses nothing is stale and is reported the
// same way — dead annotations cannot survive a burn-down.
const allowPrefix = "//caribou:allow"

// AllowComment is one parsed, well-formed suppression.
type AllowComment struct {
	File  string
	Line  int
	Col   int
	Check string
}

// collectAllows parses every //caribou:allow comment in the files,
// returning the well-formed suppressions and a diagnostic for each
// malformed one.
func collectAllows(fset *token.FileSet, files []*ast.File, valid map[string]bool) ([]AllowComment, []Diagnostic) {
	var allows []AllowComment
	var diags []Diagnostic
	report := func(pos token.Pos, msg string) {
		diags = append(diags, Diagnostic{Pos: fset.Position(pos), Check: allowCheck, Message: msg})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := c.Text[len(allowPrefix):]
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					// e.g. //caribou:allowwallclock — not an allow comment.
					continue
				}
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					report(c.Pos(), "suppression names no check: want //caribou:allow <check> <reason>")
				case !valid[fields[0]]:
					report(c.Pos(), "suppression names unknown check "+quoted(fields[0]))
				case len(fields) == 1:
					report(c.Pos(), "suppression of "+quoted(fields[0])+" gives no reason: a reason is mandatory")
				default:
					pos := fset.Position(c.Pos())
					allows = append(allows, AllowComment{File: pos.Filename, Line: pos.Line, Col: pos.Column, Check: fields[0]})
				}
			}
		}
	}
	return allows, diags
}

// allowIndex tracks every well-formed allow in the module and whether it
// earned its keep: a suppression is "used" when it suppresses at least
// one finding. Unused allows are stale diagnostics.
type allowIndex struct {
	// byKey maps (check, file, line) to the allow's slice index.
	byKey  map[allowKey]int
	allows []AllowComment
	used   []bool
}

type allowKey struct {
	check string
	file  string
	line  int
}

func newAllowIndex(units []*PkgUnit) *allowIndex {
	idx := &allowIndex{byKey: map[allowKey]int{}}
	for _, u := range units {
		for _, a := range u.Allows {
			idx.byKey[allowKey{a.Check, a.File, a.Line}] = len(idx.allows)
			idx.allows = append(idx.allows, a)
			idx.used = append(idx.used, false)
		}
	}
	return idx
}

// use reports whether an allow for check covers (file, line) — same line
// or the line above — and marks the matching allow used.
func (idx *allowIndex) use(check, file string, line int) bool {
	hit := false
	for _, l := range [2]int{line, line - 1} {
		if i, ok := idx.byKey[allowKey{check, file, l}]; ok {
			idx.used[i] = true
			hit = true
		}
	}
	return hit
}

// stale returns one diagnostic per unused allow. The "allow" meta-check
// itself is exempt from suppression, so these cannot be allowed away.
func (idx *allowIndex) stale() []Diagnostic {
	var out []Diagnostic
	for i, a := range idx.allows {
		if idx.used[i] {
			continue
		}
		out = append(out, Diagnostic{
			Pos:   token.Position{Filename: a.File, Line: a.Line, Column: a.Col},
			Check: allowCheck,
			Message: "stale suppression: //caribou:allow " + a.Check +
				" suppresses no finding; delete it (or fix the site it used to cover)",
		})
	}
	return out
}

func quoted(s string) string { return "\"" + s + "\"" }
