// Package scenarios is the checked-in scenario library. The figures that
// run from a document read it from FS, so they need no path on disk;
// scenario.LoadDir reads the same files from this directory and skips
// this Go file.
package scenarios

import "embed"

// FS holds every document of the library.
//
//go:embed *.yaml
var FS embed.FS
