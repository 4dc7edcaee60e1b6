package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"path/filepath"
)

// This file is the lint suite's machine interface: a stable JSON shape for
// diagnostics (CI artifacts, editor integrations).

// JSONDiagnostic is the serialized form of one finding. File is
// module-root-relative with forward slashes, so artifacts are portable
// across checkouts.
type JSONDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the go-vet-style human form.
func (d JSONDiagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// ToJSON converts diagnostics to their serialized form, with file paths
// relative to root.
func ToJSON(fset *token.FileSet, root string, diags []Diagnostic) []JSONDiagnostic {
	out := make([]JSONDiagnostic, 0, len(diags))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		file := pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil && !filepath.IsAbs(rel) {
			file = rel
		}
		out = append(out, JSONDiagnostic{
			File:     filepath.ToSlash(file),
			Line:     pos.Line,
			Col:      pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	return out
}

// WriteJSON emits the findings as a JSON array (the -json CLI output and
// the CI artifact shape).
func WriteJSON(w io.Writer, diags []JSONDiagnostic) error {
	if diags == nil {
		diags = []JSONDiagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(diags)
}
