package scenario

// A deliberately small, dependency-free YAML-subset reader. It reads this
// subset:
//
//   - mappings:  "key: value" with two-space block indentation
//   - sequences: "- item" blocks (compact "- key: value" mappings) and the
//     inline flow forms "[]" / "[a, b, c]" for scalar lists
//   - scalars:   bare tokens or double-quoted Go strings
//   - comments:  "#" at line start or preceded by whitespace
//
// Anchors, flow mappings, multi-document streams, multiline scalars and
// tabs are not part of the subset and are rejected with a position. JSON
// documents (first byte "{") are accepted too — encoding/json is close
// enough to a YAML subset — with paths instead of line numbers in errors.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Error is the diagnostic every parse/validation failure carries: the
// file, the position (line/col, 1-based, when the input was YAML) and the
// dotted field path.
type Error struct {
	File      string
	Line, Col int
	Path      string
	Msg       string
}

func (e *Error) Error() string {
	var b strings.Builder
	if e.File != "" {
		b.WriteString(e.File)
		b.WriteString(": ")
	}
	if e.Line > 0 {
		fmt.Fprintf(&b, "line %d:%d: ", e.Line, e.Col)
	}
	if e.Path != "" {
		b.WriteString(e.Path)
		b.WriteString(": ")
	}
	b.WriteString(e.Msg)
	return b.String()
}

type pos struct{ line, col int }

type nodeKind int

const (
	scalarNode nodeKind = iota
	mapNode
	seqNode
)

// node is the untyped document tree the decoder walks.
type node struct {
	pos     pos
	kind    nodeKind
	val     string // scalar text (unquoted content)
	quoted  bool   // scalar came double-quoted: always a string
	entries []entry
	items   []*node
}

type entry struct {
	key  string
	kpos pos
	val  *node
}

// get returns the value of a mapping key, or nil.
func (n *node) get(key string) *node {
	for i := range n.entries {
		if n.entries[i].key == key {
			return n.entries[i].val
		}
	}
	return nil
}

// srcLine is one pre-processed input line.
type srcLine struct {
	text   string // content with indentation and comments stripped
	indent int
	line   int // 1-based source line
}

type parser struct {
	file  string
	lines []srcLine
	i     int
}

func errAt(file string, p pos, path, format string, args ...any) *Error {
	return &Error{File: file, Line: p.line, Col: p.col, Path: path, Msg: fmt.Sprintf(format, args...)}
}

// parseDoc turns a document (YAML subset or JSON) into a mapping node.
func parseDoc(file string, data []byte) (*node, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '{' {
		return jsonToNode(file, data)
	}
	p := &parser{file: file}
	if err := p.preprocess(data); err != nil {
		return nil, err
	}
	if len(p.lines) == 0 {
		return nil, errAt(file, pos{1, 1}, "", "empty document")
	}
	if p.lines[0].indent != 0 {
		return nil, errAt(file, pos{p.lines[0].line, p.lines[0].indent + 1}, "", "top-level content must not be indented")
	}
	n, err := p.parseMapping(0, "")
	if err != nil {
		return nil, err
	}
	if p.i < len(p.lines) {
		l := p.lines[p.i]
		return nil, errAt(file, pos{l.line, l.indent + 1}, "", "unexpected de-indent to a new top-level block")
	}
	return n, nil
}

// preprocess strips comments and blank lines and records indentation.
func (p *parser) preprocess(data []byte) error {
	for lineno, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimRight(raw, " \r")
		indent := 0
		for indent < len(line) && line[indent] == ' ' {
			indent++
		}
		if indent < len(line) && line[indent] == '\t' {
			return errAt(p.file, pos{lineno + 1, indent + 1}, "", "tab indentation is not allowed")
		}
		text := stripComment(line[indent:])
		text = strings.TrimRight(text, " ")
		if text == "" {
			continue
		}
		p.lines = append(p.lines, srcLine{text: text, indent: indent, line: lineno + 1})
	}
	return nil
}

// stripComment cuts an unquoted "#" comment: at the start of the content
// or preceded by whitespace, and never inside a double-quoted string.
func stripComment(s string) string {
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inQuote && c == '\\':
			i++ // skip the escaped character
		case c == '"':
			inQuote = !inQuote
		case !inQuote && c == '#' && (i == 0 || s[i-1] == ' '):
			return s[:i]
		}
	}
	return s
}

// parseMapping reads "key: value" lines at exactly the given indent.
func (p *parser) parseMapping(indent int, path string) (*node, error) {
	first := p.lines[p.i]
	out := &node{pos: pos{first.line, first.indent + 1}, kind: mapNode}
	seen := map[string]bool{}
	for p.i < len(p.lines) {
		l := p.lines[p.i]
		if l.indent != indent {
			if l.indent > indent {
				return nil, errAt(p.file, pos{l.line, l.indent + 1}, path, "unexpected indentation")
			}
			break // end of this block
		}
		if strings.HasPrefix(l.text, "- ") || l.text == "-" {
			return nil, errAt(p.file, pos{l.line, l.indent + 1}, path, "sequence item where a mapping key was expected")
		}
		key, rest, ok := splitKey(l.text)
		if !ok {
			return nil, errAt(p.file, pos{l.line, l.indent + 1}, path, "expected \"key: value\"")
		}
		kpos := pos{l.line, l.indent + 1}
		if seen[key] {
			return nil, errAt(p.file, kpos, joinPath(path, key), "duplicate key")
		}
		seen[key] = true
		p.i++
		var val *node
		var err error
		if rest == "" {
			val, err = p.parseChildBlock(indent, joinPath(path, key), kpos)
		} else {
			val, err = p.parseValue(rest, pos{l.line, l.indent + len(key) + 3}, joinPath(path, key))
		}
		if err != nil {
			return nil, err
		}
		out.entries = append(out.entries, entry{key: key, kpos: kpos, val: val})
	}
	return out, nil
}

// parseChildBlock reads the indented block that serves as the value of a
// key whose line had nothing after the colon.
func (p *parser) parseChildBlock(parentIndent int, path string, kpos pos) (*node, error) {
	if p.i >= len(p.lines) || p.lines[p.i].indent <= parentIndent {
		return nil, errAt(p.file, kpos, path, "missing value (expected an indented block)")
	}
	child := p.lines[p.i]
	if strings.HasPrefix(child.text, "- ") || child.text == "-" {
		return p.parseSequence(child.indent, path)
	}
	return p.parseMapping(child.indent, path)
}

// parseSequence reads "- item" lines at exactly the given indent.
func (p *parser) parseSequence(indent int, path string) (*node, error) {
	first := p.lines[p.i]
	out := &node{pos: pos{first.line, first.indent + 1}, kind: seqNode}
	for p.i < len(p.lines) {
		l := p.lines[p.i]
		if l.indent != indent || (!strings.HasPrefix(l.text, "- ") && l.text != "-") {
			if l.indent > indent {
				return nil, errAt(p.file, pos{l.line, l.indent + 1}, path, "unexpected indentation")
			}
			break
		}
		itemPath := fmt.Sprintf("%s[%d]", path, len(out.items))
		if l.text == "-" {
			return nil, errAt(p.file, pos{l.line, l.indent + 1}, itemPath, "empty sequence item")
		}
		rest := l.text[2:]
		if _, _, isMap := splitKey(rest); isMap {
			// Compact mapping: rewrite the dash as indentation and parse a
			// mapping block at indent+2 (the canonical layout).
			p.lines[p.i] = srcLine{text: rest, indent: indent + 2, line: l.line}
			item, err := p.parseMapping(indent+2, itemPath)
			if err != nil {
				return nil, err
			}
			out.items = append(out.items, item)
			continue
		}
		p.i++
		item, err := p.parseValue(rest, pos{l.line, l.indent + 3}, itemPath)
		if err != nil {
			return nil, err
		}
		out.items = append(out.items, item)
	}
	return out, nil
}

// parseValue reads an inline value: a scalar or a flow sequence.
func (p *parser) parseValue(text string, at pos, path string) (*node, error) {
	if strings.HasPrefix(text, "[") {
		if !strings.HasSuffix(text, "]") {
			return nil, errAt(p.file, at, path, "unterminated flow sequence")
		}
		out := &node{pos: at, kind: seqNode}
		inner := strings.TrimSpace(text[1 : len(text)-1])
		if inner == "" {
			return out, nil
		}
		for _, tok := range splitFlow(inner) {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				return nil, errAt(p.file, at, path, "empty flow-sequence element")
			}
			item, err := p.parseScalar(tok, at, fmt.Sprintf("%s[%d]", path, len(out.items)))
			if err != nil {
				return nil, err
			}
			out.items = append(out.items, item)
		}
		return out, nil
	}
	return p.parseScalar(text, at, path)
}

// parseScalar reads one scalar token, resolving double quotes.
func (p *parser) parseScalar(text string, at pos, path string) (*node, error) {
	if strings.HasPrefix(text, "\"") {
		s, err := strconv.Unquote(text)
		if err != nil {
			return nil, errAt(p.file, at, path, "bad quoted string %s", text)
		}
		return &node{pos: at, kind: scalarNode, val: s, quoted: true}, nil
	}
	if strings.ContainsAny(text, "{}") {
		return nil, errAt(p.file, at, path, "flow mappings are not supported")
	}
	return &node{pos: at, kind: scalarNode, val: text}, nil
}

// splitKey splits "key: rest" / "key:"; ok is false when the line is not a
// mapping entry.
func splitKey(text string) (key, rest string, ok bool) {
	i := strings.IndexByte(text, ':')
	if i <= 0 {
		return "", "", false
	}
	key = text[:i]
	for j := 0; j < len(key); j++ {
		c := key[j]
		letter := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
		digit := c >= '0' && c <= '9'
		if !(letter || digit || c == '_' || c == '-') || (j == 0 && digit) {
			return "", "", false
		}
	}
	rest = text[i+1:]
	if rest != "" && !strings.HasPrefix(rest, " ") {
		return "", "", false
	}
	return key, strings.TrimSpace(rest), true
}

// splitFlow splits a flow-sequence body on commas outside quotes.
func splitFlow(s string) []string {
	var out []string
	start, inQuote := 0, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inQuote && c == '\\':
			i++
		case c == '"':
			inQuote = !inQuote
		case !inQuote && c == ',':
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

func joinPath(base, key string) string {
	if base == "" {
		return key
	}
	return base + "." + key
}

// jsonToNode converts a JSON document into the node tree. Mapping entries
// are sorted by key so diagnostics stay deterministic; positions are
// absent (paths carry the location instead).
func jsonToNode(file string, data []byte) (*node, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, &Error{File: file, Msg: fmt.Sprintf("invalid JSON: %v", err)}
	}
	return jsonValue(file, "", v)
}

func jsonValue(file, path string, v any) (*node, error) {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := &node{kind: mapNode}
		for _, k := range keys {
			child, err := jsonValue(file, joinPath(path, k), x[k])
			if err != nil {
				return nil, err
			}
			out.entries = append(out.entries, entry{key: k, val: child})
		}
		return out, nil
	case []any:
		out := &node{kind: seqNode}
		for i, it := range x {
			child, err := jsonValue(file, fmt.Sprintf("%s[%d]", path, i), it)
			if err != nil {
				return nil, err
			}
			out.items = append(out.items, child)
		}
		return out, nil
	case string:
		return &node{kind: scalarNode, val: x, quoted: true}, nil
	case json.Number:
		return &node{kind: scalarNode, val: x.String()}, nil
	case bool:
		return &node{kind: scalarNode, val: strconv.FormatBool(x)}, nil
	default:
		return nil, &Error{File: file, Path: path, Msg: "null values are not allowed"}
	}
}
