package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Load reads and parses one scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(filepath.Base(path), data)
}

// Entry is one scenario of a directory suite.
type Entry struct {
	Path     string
	Scenario *Scenario
}

// LoadDir loads every scenario document (.yaml or .yml) in a directory,
// sorted by file name so suites run in a stable order. Other files are
// ignored.
func LoadDir(dir string) ([]Entry, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, de := range names {
		if de.IsDir() {
			continue
		}
		switch strings.ToLower(filepath.Ext(de.Name())) {
		case ".yaml", ".yml":
		default:
			continue
		}
		path := filepath.Join(dir, de.Name())
		s, err := Load(path)
		if err != nil {
			return nil, err
		}
		out = append(out, Entry{Path: path, Scenario: s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	if len(out) == 0 {
		return nil, fmt.Errorf("scenario: no scenario files (.yaml/.yml) in %s", dir)
	}
	return out, nil
}
