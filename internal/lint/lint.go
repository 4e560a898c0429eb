// Package lint is hotnoc's static-analysis suite: a small go/analysis-style
// framework plus the analyzers that machine-enforce the invariants the
// codebase otherwise carries only in comments and runtime spot-checks —
// the scrape-time lock-ordering rule, the 0 allocs/op hot-loop contracts,
// the bitwise-deterministic sweep ordering, and the never-cache-an-error
// rule. cmd/hotnoclint runs every analyzer over ./... in CI.
//
// The framework is dependency-free on purpose: it loads packages with
// `go list -json` + go/parser + go/types instead of golang.org/x/tools,
// so the linter builds with the same zero-dependency constraint as the
// rest of the module. The Analyzer/Pass surface deliberately mirrors
// golang.org/x/tools/go/analysis so the analyzers could migrate to the
// real driver if the dependency ever lands.
//
// Annotations the analyzers understand:
//
//	//hotnoc:noalloc        (func doc)   function must not allocate
//	//hotnoc:deterministic  (file or func doc) bitwise-stable scope
//	//hotnoc:scrapelocked   (struct field comment) mutex forbidden in
//	                        scrape-time callbacks
//	//hotnoc:errcache       (type doc)   value+error cache entry struct
//	//hotnoc:allow <analyzer> [reason]   suppress findings on this line
//	                        or the next one; the reason is the audit trail
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Run is invoked once per package, in
// dependency order, sharing one fact store across the whole run so
// summaries propagate across package boundaries.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Pass carries one analyzer's view of one package plus the shared fact
// store. Reportf silently drops findings on //hotnoc:allow lines.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	facts   map[types.Object]any
	diags   *[]Diagnostic
	allowed map[string]map[int]bool // filename -> suppressed lines
}

// Reportf records a finding at pos unless a //hotnoc:allow comment for
// this analyzer covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.Suppressed(pos) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Suppressed reports whether pos sits on a line covered by a
// //hotnoc:allow comment for this analyzer. Analyzers that summarize
// code for callers (noalloc) consult it at scan time so a suppressed
// site does not taint every transitive caller.
func (p *Pass) Suppressed(pos token.Pos) bool {
	position := p.Pkg.Fset.Position(pos)
	return p.allowed[position.Filename][position.Line]
}

// ExportFact attaches a fact to obj, visible to this analyzer in every
// later-analyzed package (packages run in dependency order).
func (p *Pass) ExportFact(obj types.Object, fact any) { p.facts[obj] = fact }

// Fact returns the fact previously exported for obj, if any.
func (p *Pass) Fact(obj types.Object) (any, bool) {
	f, ok := p.facts[obj]
	return f, ok
}

// Run executes every analyzer over every package (already in dependency
// order, as Load returns them) and returns the surviving findings sorted
// by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		facts := map[types.Object]any{}
		for _, pkg := range pkgs {
			pass := &Pass{
				Analyzer: a,
				Pkg:      pkg,
				facts:    facts,
				diags:    &diags,
				allowed:  allowedLines(pkg, a.Name),
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// allowedLines maps each file to the lines where //hotnoc:allow <name>
// suppresses findings: the comment's own line and the line below it.
func allowedLines(pkg *Package, name string) map[string]map[int]bool {
	out := map[string]map[int]bool{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				fields := strings.Fields(strings.TrimPrefix(c.Text, "//"))
				if len(fields) < 2 || fields[0] != "hotnoc:allow" || fields[1] != name {
					continue
				}
				position := pkg.Fset.Position(c.Pos())
				m := out[position.Filename]
				if m == nil {
					m = map[int]bool{}
					out[position.Filename] = m
				}
				m[position.Line] = true
				m[position.Line+1] = true
			}
		}
	}
	return out
}

// hasDirective reports whether a doc comment carries //hotnoc:<name>
// (with optional trailing text).
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if text == "hotnoc:"+name || strings.HasPrefix(text, "hotnoc:"+name+" ") {
			return true
		}
	}
	return false
}

// fileHasDirective reports whether any comment group in the file other
// than a function's doc comment carries the directive — the file-level
// annotation form.
func fileHasDirective(f *ast.File, name string) bool {
	funcDocs := map[*ast.CommentGroup]bool{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil {
			funcDocs[fd.Doc] = true
		}
	}
	for _, cg := range f.Comments {
		if !funcDocs[cg] && hasDirective(cg, name) {
			return true
		}
	}
	return false
}

// staticCallee resolves the *types.Func a call statically dispatches
// to: a package-level function, a method value call, or a builtin-free
// qualified call. Returns nil for builtins, conversions, and calls
// through function values.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok && sel.Kind() == types.MethodVal {
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.Fn(...).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := types.Unalias(t).Underlying().(*types.Map)
	return ok
}

// All returns every analyzer in the suite, in stable order. cmd/hotnoclint
// registers exactly this set; the meta-test pins the correspondence.
func All() []*Analyzer {
	return []*Analyzer{LockOrder, NoAlloc, Determinism, ErrCache}
}
