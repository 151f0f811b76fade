package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
)

// format.go renders diagnostics in the two output modes cmd/caribou-lint
// offers. Both live here rather than in the command so the golden-output
// test exercises the exact bytes users see.

// FormatText renders diagnostics one per line as
//
//	file:line: [check] message
//
// with file paths relative to root. Input order is preserved — callers
// pass the canonically sorted output of Lint.
func FormatText(root string, diags []Diagnostic) []byte {
	var b bytes.Buffer
	for _, d := range diags {
		fmt.Fprintf(&b, "%s:%d: [%s] %s\n", RelPath(root, d.Pos.Filename), d.Pos.Line, d.Check, d.Message)
	}
	return b.Bytes()
}

// FormatJSON renders diagnostics as an indented JSON array of
// {file, line, col, check, message}, paths relative to root, preserving
// input order. The encoding is deterministic: struct fields have a fixed
// order and the array is the canonically sorted diagnostic list.
func FormatJSON(root string, diags []Diagnostic) ([]byte, error) {
	type finding struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Check   string `json:"check"`
		Message string `json:"message"`
	}
	out := make([]finding, 0, len(diags))
	for _, d := range diags {
		out = append(out, finding{
			File:    RelPath(root, d.Pos.Filename),
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Check:   d.Check,
			Message: d.Message,
		})
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// RelPath renders file relative to root when it sits underneath it, so
// diagnostics are stable across checkouts and machines.
func RelPath(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !filepath.IsAbs(rel) && rel != "" && rel[0] != '.' {
		return filepath.ToSlash(rel)
	}
	return file
}
