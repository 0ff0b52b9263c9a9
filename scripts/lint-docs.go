// Command lint-docs enforces the repository's documentation floor
// (OBSERVABILITY.md grew out of the same audit): every package must
// carry a package-level doc comment, and every cmd/ binary's doc
// comment must mention each flag the binary defines by name (so
// `go doc ./cmd/tempo-bench` is a complete usage reference). Missing
// package docs and undocumented flags are fatal; exported declarations
// without doc comments are reported as warnings so the gap is visible
// without blocking CI on legacy symbols.
//
// Flag mentions are matched boundary-aware: "-trace" in the doc
// satisfies a flag named "trace", but "-trace-events" does not, so a
// rename cannot silently leave a stale cousin covering for it.
//
// The same spec-first discipline covers the translation-mechanism zoo:
// every mechanism name internal/translation lists (the string literals
// its Names function returns) must be mentioned in MECHANISMS.md, the
// zoo's normative spec — boundary-aware like the flag check, so
// "victimax" cannot cover for "victima". Adding a mechanism without
// writing its spec is fatal, and so is a translation package whose
// Names lists no literal (the gate would otherwise check nothing).
//
// Metric names get the same treatment: every canonical instrument name
// — the Metric* string constants in internal/obsv plus every string
// literal passed to a registry Counter / Histogram / Gauge call — must
// appear in OBSERVABILITY.md, the metric reference. Names built at
// runtime (fmt.Sprintf per-core prefixes, loop variables) are skipped;
// their shape is documented as core<i>/... patterns instead. Matching
// is boundary-aware over the metric charset (letters, digits, _, -, /)
// so "sys/tlb_misses_total" cannot cover for "sys/tlb_misses".
//
// Run from the repository root (CI does):
//
//	go run ./scripts/lint-docs.go
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	dirs, err := packageDirs(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lint-docs: %v\n", err)
		os.Exit(2)
	}

	var fatal []string
	warnings := 0
	for _, dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lint-docs: %s: %v\n", dir, err)
			os.Exit(2)
		}
		for name, pkg := range pkgs {
			if !hasPackageDoc(pkg) {
				fatal = append(fatal, fmt.Sprintf("no package doc comment: %s (package %s)", dir, name))
			}
			warnings += reportUndocumentedExports(fset, pkg)
			if name == "main" && strings.HasPrefix(filepath.ToSlash(dir), "cmd/") {
				for _, flagName := range undocumentedFlags(pkg) {
					fatal = append(fatal, fmt.Sprintf(
						"%s: doc comment does not mention flag -%s", dir, flagName))
				}
			}
		}
	}

	for _, m := range mechanismDocGaps(root) {
		fatal = append(fatal, m)
	}
	for _, m := range metricDocGaps(root, dirs) {
		fatal = append(fatal, m)
	}

	if warnings > 0 {
		fmt.Fprintf(os.Stderr, "lint-docs: %d exported declarations without doc comments (warnings)\n", warnings)
	}
	if len(fatal) > 0 {
		sort.Strings(fatal)
		for _, m := range fatal {
			fmt.Fprintf(os.Stderr, "lint-docs: FATAL: %s\n", m)
		}
		os.Exit(1)
	}
	fmt.Printf("lint-docs: %d packages documented, %d export warnings\n", len(dirs), warnings)
}

// flagDefs maps flag-package constructor method names to the argument
// index holding the flag's name. Covers both the package-level funcs
// (flag.String) and FlagSet methods (fs.String), which share names.
var flagDefs = map[string]int{
	"String": 0, "Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0,
	"Float64": 0, "Duration": 0,
	"StringVar": 1, "BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1,
	"Uint64Var": 1, "Float64Var": 1, "DurationVar": 1, "TextVar": 1,
	"Var": 1, "Func": 0, "BoolFunc": 0,
}

// undocumentedFlags returns the names of flags the package defines
// whose doc comment never mentions them as "-name" (boundary-aware:
// the character after the name must not continue an identifier, so
// "-trace-events" cannot satisfy a flag named "trace").
func undocumentedFlags(pkg *ast.Package) []string {
	var doc strings.Builder
	for _, f := range pkg.Files {
		if f.Doc != nil {
			doc.WriteString(f.Doc.Text())
			doc.WriteString("\n")
		}
	}
	var missing []string
	seen := map[string]bool{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			idx, ok := flagDefs[sel.Sel.Name]
			if !ok || idx >= len(call.Args) {
				return true
			}
			lit, ok := call.Args[idx].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name := strings.Trim(lit.Value, `"`)
			if name == "" || seen[name] {
				return true
			}
			seen[name] = true
			if !docMentionsFlag(doc.String(), name) {
				missing = append(missing, name)
			}
			return true
		})
	}
	sort.Strings(missing)
	return missing
}

// docMentionsFlag reports whether doc contains "-name" at a flag-name
// boundary: not preceded by an identifier character (which would make
// it the tail of a longer flag like -trace-events) and not followed by
// one of [a-zA-Z0-9_-] (which would make it a prefix of one).
func docMentionsFlag(doc, name string) bool {
	pat := "-" + name
	for i := 0; ; {
		j := strings.Index(doc[i:], pat)
		if j < 0 {
			return false
		}
		j += i
		i = j + 1
		if j > 0 && isFlagChar(doc[j-1]) {
			continue // tail of a longer name: "...ce-events" vs "-events"
		}
		if end := j + len(pat); end < len(doc) && isFlagChar(doc[end]) {
			continue // prefix of a longer name: "-trace" vs "-trace-events"
		}
		return true
	}
}

// isFlagChar reports whether c can appear inside a flag name.
func isFlagChar(c byte) bool {
	return c == '-' || c == '_' ||
		'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

// mechanismDocGaps enforces the MECHANISMS.md gate: every mechanism
// internal/translation lists must appear in MECHANISMS.md. Returns one
// fatal message per gap; a repo without a translation package
// trivially passes, but a listed mechanism with a missing spec file
// does not.
func mechanismDocGaps(root string) []string {
	names, err := registeredMechanisms(filepath.Join(root, "internal", "translation"))
	if err != nil {
		return []string{fmt.Sprintf("internal/translation: %v", err)}
	}
	if len(names) == 0 {
		return nil
	}
	specPath := filepath.Join(root, "MECHANISMS.md")
	spec, err := os.ReadFile(specPath)
	if err != nil {
		return []string{fmt.Sprintf("%d mechanisms listed but MECHANISMS.md is unreadable: %v", len(names), err)}
	}
	var gaps []string
	for _, name := range names {
		if !docMentionsWord(string(spec), name) {
			gaps = append(gaps, fmt.Sprintf(
				"MECHANISMS.md: mechanism %q is never mentioned (write its spec)", name))
		}
	}
	return gaps
}

// registeredMechanisms returns the sorted string literals of the
// function Names in the package at dir, whose return is the one place
// the code lists every mechanism name. A missing directory yields no
// names (repos without the zoo pass the gate trivially); a package
// whose Names holds no literal is an error.
func registeredMechanisms(dir string) ([]string, error) {
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return nil, nil
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv != nil || fn.Name.Name != "Names" || fn.Body == nil {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					lit, ok := n.(*ast.BasicLit)
					if ok && lit.Kind == token.STRING {
						if name := strings.Trim(lit.Value, "`\""); name != "" {
							seen[name] = true
						}
					}
					return true
				})
			}
		}
	}
	if len(seen) == 0 {
		return nil, fmt.Errorf("no mechanism names: Names holds no string literal")
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// docMentionsWord reports whether doc contains name at identifier
// boundaries — the mechanism-name analogue of docMentionsFlag, without
// the leading dash (so both `victima` prose and -mech victima usage
// satisfy it, but "victimax" or "revictima" do not).
func docMentionsWord(doc, name string) bool {
	for i := 0; ; {
		j := strings.Index(doc[i:], name)
		if j < 0 {
			return false
		}
		j += i
		i = j + 1
		if j > 0 && isFlagChar(doc[j-1]) {
			continue
		}
		if end := j + len(name); end < len(doc) && isFlagChar(doc[end]) {
			continue
		}
		return true
	}
}

// metricDocGaps enforces the OBSERVABILITY.md gate: every registered
// counter/gauge/histogram name must appear in the metric reference.
// dirs is the package-directory list main already computed. A repo
// registering no metrics trivially passes; a registered name with no
// OBSERVABILITY.md (or one the doc never mentions) is fatal.
func metricDocGaps(root string, dirs []string) []string {
	names, err := registeredMetricNames(root, dirs)
	if err != nil {
		return []string{fmt.Sprintf("metric scan: %v", err)}
	}
	if len(names) == 0 {
		return nil
	}
	docPath := filepath.Join(root, "OBSERVABILITY.md")
	doc, err := os.ReadFile(docPath)
	if err != nil {
		return []string{fmt.Sprintf("%d metrics registered but OBSERVABILITY.md is unreadable: %v", len(names), err)}
	}
	var gaps []string
	for _, name := range names {
		if !docMentionsMetric(string(doc), name) {
			gaps = append(gaps, fmt.Sprintf(
				"OBSERVABILITY.md: registered metric %q is never mentioned (document it)", name))
		}
	}
	return gaps
}

// registryCtors names the obsv.Registry instrument constructors whose
// first argument is the metric name.
var registryCtors = map[string]bool{"Counter": true, "Histogram": true, "Gauge": true}

// registeredMetricNames returns the sorted union of (a) the values of
// Metric* string constants in internal/obsv — the canonical name list
// every gauge/sweep view registers through — and (b) every string
// literal passed as the first argument to a Counter/Histogram/Gauge
// call anywhere in the repo. Computed names (non-literal arguments)
// are skipped by construction.
func registeredMetricNames(root string, dirs []string) ([]string, error) {
	seen := map[string]bool{}

	obsvDir := filepath.Join(root, "internal", "obsv")
	if _, err := os.Stat(obsvDir); err == nil {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, obsvDir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			return nil, err
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					gd, ok := decl.(*ast.GenDecl)
					if !ok || gd.Tok != token.CONST {
						continue
					}
					for _, spec := range gd.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for i, id := range vs.Names {
							if !strings.HasPrefix(id.Name, "Metric") || i >= len(vs.Values) {
								continue
							}
							if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
								if name := strings.Trim(lit.Value, "`\""); name != "" {
									seen[name] = true
								}
							}
						}
					}
				}
			}
		}
	}

	for _, dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			return nil, err
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || len(call.Args) < 1 {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || !registryCtors[sel.Sel.Name] {
						return true
					}
					if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if name := strings.Trim(lit.Value, "`\""); name != "" {
							seen[name] = true
						}
					}
					return true
				})
			}
		}
	}

	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// docMentionsMetric reports whether doc contains name at metric-name
// boundaries. The metric charset extends the flag charset with '/'
// (the registry's hierarchy separator), so a full path like
// "mem/dram_refs/ptw" is matched whole: neither "mem/dram_refs" alone
// nor "sys/tlb_misses_total" can satisfy it.
func docMentionsMetric(doc, name string) bool {
	for i := 0; ; {
		j := strings.Index(doc[i:], name)
		if j < 0 {
			return false
		}
		j += i
		i = j + 1
		if j > 0 && isMetricChar(doc[j-1]) {
			continue
		}
		if end := j + len(name); end < len(doc) && isMetricChar(doc[end]) {
			continue
		}
		return true
	}
}

// isMetricChar reports whether c can appear inside a metric name.
func isMetricChar(c byte) bool {
	return c == '/' || isFlagChar(c)
}

// packageDirs returns every directory under root containing a
// non-test .go file, skipping vendor/hidden/testdata trees.
func packageDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "vendor" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// receiverExported reports whether d is a plain function or a method
// on an exported type. Methods on unexported types (interface
// plumbing like io.Writer impls) are not godoc surface.
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = v.X
		case *ast.IndexListExpr:
			t = v.X
		case *ast.Ident:
			return v.IsExported()
		default:
			return true
		}
	}
}

// hasPackageDoc reports whether any file of the package carries a doc
// comment on its package clause.
func hasPackageDoc(pkg *ast.Package) bool {
	for _, f := range pkg.Files {
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return true
		}
	}
	return false
}

// reportUndocumentedExports prints a warning for every exported
// top-level declaration lacking a doc comment and returns the count.
// Grouped declarations (var/const blocks, fields) are checked at the
// declaration level only — matching the granularity godoc renders.
func reportUndocumentedExports(fset *token.FileSet, pkg *ast.Package) int {
	n := 0
	warn := func(pos token.Pos, what, name string) {
		n++
		p := fset.Position(pos)
		fmt.Fprintf(os.Stderr, "lint-docs: warning: %s:%d: exported %s %s has no doc comment\n",
			p.Filename, p.Line, what, name)
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc == nil && receiverExported(d) {
					warn(d.Pos(), "function", d.Name.Name)
				}
			case *ast.GenDecl:
				if d.Doc != nil {
					continue
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
							warn(s.Pos(), "type", s.Name.Name)
						}
					case *ast.ValueSpec:
						if s.Doc != nil || s.Comment != nil {
							continue
						}
						for _, id := range s.Names {
							if id.IsExported() {
								warn(s.Pos(), "value", id.Name)
								break
							}
						}
					}
				}
			}
		}
	}
	return n
}
