package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// keyFuncNames are the cache-key encoders, in the order diagnostics
// name them. memoKey and persistKey are the roots; appendMachineBin
// (the memo key's binary machine tail) and appendMachineKey (the
// persist key's text tail) are the machine encoders they delegate to.
var keyFuncNames = []string{"memoKey", "persistKey", "appendMachineBin", "appendMachineKey"}

// KeyComplete structurally compares the fields of the run-describing
// structs — the key functions' receiver (RunSpec) plus arch.Spec and
// arch.RegFile — against the fields those functions actually read.
// A machine-shape field that never reaches the key is exactly the PR
// 4/5 bug class: two different machines share one cached Report. The
// check walks each key function and everything it calls inside its
// package, crediting every field touched along a selection path
// (embedded promotion included). Each encoder must reach every
// machine-shape field on its own, so a field one encoder drops is
// flagged even when another encodes it; a receiver field needs only
// one encoder, since the machine encoders see the plan and never the
// spec. A field that is deliberately not part of a run's identity
// carries an //mtvlint:allow keycomplete directive at its declaration.
var KeyComplete = &Analyzer{
	Name: "keycomplete",
	Doc:  "every machine-shape field must be encoded by each of memoKey/persistKey/appendMachineBin/appendMachineKey (or be explicitly exempted)",
	Run:  runKeyComplete,
}

func runKeyComplete(pass *Pass) {
	info := pass.Pkg.TypesInfo
	decls := funcDecls(pass.Pkg)

	// Roots: the key functions declared in this package. Packages
	// without them (everything but internal/session) are a no-op.
	byName := make(map[string]*ast.FuncDecl)
	var recvTypes []*types.Named
	for obj, fd := range decls {
		if !slices.Contains(keyFuncNames, fd.Name.Name) {
			continue
		}
		byName[fd.Name.Name] = fd
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			if n := namedOf(sig.Recv().Type()); n != nil {
				recvTypes = append(recvTypes, n)
			}
		}
	}
	var roots []string
	for _, name := range keyFuncNames {
		if byName[name] != nil {
			roots = append(roots, name)
		}
	}
	if len(roots) == 0 {
		return
	}

	// Per root, the transitive closure over same-package calls: a
	// helper like appendMachineBin or a future splitKey still credits
	// the fields it reads.
	reached := make(map[string]map[*types.Var]bool, len(roots))
	union := make(map[*types.Var]bool)
	for _, name := range roots {
		referenced := make(map[*types.Var]bool)
		seen := make(map[*ast.FuncDecl]bool)
		var walk func(fd *ast.FuncDecl)
		walk = func(fd *ast.FuncDecl) {
			if fd == nil || seen[fd] || fd.Body == nil {
				return
			}
			seen[fd] = true
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					creditSelection(info, n, referenced)
				case *ast.CallExpr:
					if obj := calleeObj(info, n); obj != nil {
						walk(decls[obj])
					}
				}
				return true
			})
		}
		walk(byName[name])
		reached[name] = referenced
		for f := range referenced {
			union[f] = true
		}
	}

	// Targets: the key functions' receiver structs (one encoder
	// suffices) plus the arch-layer shape structs (every encoder must
	// reach them), wherever the arch package lives in this load.
	targets := make(map[*types.Named]bool) // value: checked per encoder
	for _, n := range recvTypes {
		targets[n] = false
	}
	if arch := pass.Index.Lookup("internal/arch"); arch != nil {
		for _, name := range []string{"Spec", "RegFile"} {
			if obj, ok := arch.Types.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := obj.Type().(*types.Named); ok {
					targets[n] = true
				}
			}
		}
	}

	for named, perEncoder := range targets {
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			var missing []string
			switch {
			case !union[field]:
				missing = roots
			case perEncoder:
				for _, name := range roots {
					if !reached[name][field] {
						missing = append(missing, name)
					}
				}
			}
			if len(missing) == 0 {
				continue
			}
			pass.Reportf(field.Pos(), "field %s.%s never reaches %s; a run differing only in it would collide in the cache (encode it, or exempt it with //mtvlint:allow keycomplete -- reason)",
				named.Obj().Name(), field.Name(), strings.Join(missing, "/"))
		}
	}
}

// creditSelection marks every field traversed by a field selection,
// including the embedded hops of a promoted access (p.cfg.MaxContexts
// credits both the embedded Spec and Spec.MaxContexts).
func creditSelection(info *types.Info, sel *ast.SelectorExpr, referenced map[*types.Var]bool) {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return
	}
	t := s.Recv()
	for _, idx := range s.Index() {
		for {
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
				continue
			}
			break
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		f := st.Field(idx)
		referenced[f] = true
		t = f.Type()
	}
}
