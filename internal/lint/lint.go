// Package lint is the repository's own static-analysis suite: four
// analyzers that mechanically enforce invariants the rest of the module
// holds by convention — byte-deterministic rendering, cache-key
// completeness, joined validation diagnostics and observer purity. cmd/mtvlint drives them over the
// module; docs/LINT.md catalogues the invariants and the history behind
// each one.
//
// The framework mirrors golang.org/x/tools/go/analysis in miniature
// (Analyzer, Pass, report-with-position, testdata fixtures with
// `// want` expectations) but is built on the standard library alone:
// packages load through `go list -deps -json` and type-check from
// source, so the tool needs no module dependencies and works offline.
//
// False positives are suppressed in place with a directive comment on
// (or directly above) the offending line:
//
//	//mtvlint:allow determinism -- ordering proven by TestX
//
// Every suppression should carry a reason after "--".
package lint

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //mtvlint:allow directives.
	Name string

	// Doc is a one-paragraph description of the invariant enforced.
	Doc string

	// Run inspects pass.Pkg and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass is one analyzer's view of one package under analysis.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Index    *Index

	diags *[]Diagnostic
}

// Reportf records a finding at pos unless an //mtvlint:allow directive
// suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.Index.Allowed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		KeyComplete,
		JoinedValidate,
		ObserverPure,
	}
}

// Run applies each analyzer to each package and returns every surviving
// diagnostic, sorted by position.
func Run(pkgs []*Package, ix *Index, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, Index: ix, diags: &diags}
			a.Run(pass)
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
		return a.Message < b.Message
	})
	return diags
}

// ---- shared helpers ----

// pkgIs reports whether an import path is the given path or ends with
// "/"+path — so "mtvec/internal/core" matches "internal/core" and the
// fixture trees can mirror real paths.
func pkgIs(path, want string) bool {
	return path == want || strings.HasSuffix(path, "/"+want)
}

// pkgOf returns the defining package path of a named type's object, or
// "".
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// namedOf unwraps pointers and aliases down to a *types.Named, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(t)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// exprString renders an expression compactly ("fmt.Fprintf") for
// messages.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var b strings.Builder
	if err := printer.Fprint(&b, fset, e); err != nil {
		return fmt.Sprintf("%T", e)
	}
	return b.String()
}

// calleeObj resolves a call expression's callee object (function or
// method), or nil.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// isPkgFunc reports whether a call resolves to the named function (or
// any function when name is "*") of a package matched by pkgIs.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	obj := calleeObj(info, call)
	if obj == nil || !pkgIs(pkgPathOf(obj), pkgPath) {
		return false
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() == nil {
		return name == "*" || fn.Name() == name
	}
	return false
}

// funcDecls maps a package's function objects to their declarations,
// for intra-package call-graph walks.
func funcDecls(pkg *Package) map[types.Object]*ast.FuncDecl {
	m := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj := pkg.TypesInfo.Defs[fd.Name]; obj != nil {
					m[obj] = fd
				}
			}
		}
	}
	return m
}

// isInteger reports whether a type's underlying kind is an integer.
func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// rootIdent returns the leftmost identifier of a selector/index/star
// chain ("b" for b.slots.x[i]), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
