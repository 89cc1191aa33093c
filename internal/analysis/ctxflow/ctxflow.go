// Package ctxflow enforces the engine's cancellation invariant: a context
// must be able to reach the branch-and-bound loop from any library entry
// point. It reports two defect classes in non-main, non-test packages:
//
//   - manufacturing a context with context.Background() or context.TODO()
//     inside library code, which silently severs the caller's cancellation
//     chain. The one sanctioned shape is the nil-guard
//     `if ctx == nil { ctx = context.Background() }`, which preserves a
//     caller-supplied context and only fills a documented nil. There are
//     no other exemptions: a deprecated wrapper is held to the same rule.
//
//   - dropping a context that is in scope: calling f(...) from a function
//     that has a ctx parameter when an fContext(ctx, ...) sibling exists.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"xic/internal/analysis"
)

// New constructs the analyzer. The sibling table is gathered in Collect
// across every package, so a dropped-ctx call in package A to a function
// in package B is still seen.
func New() *analysis.Analyzer {
	c := &ctxflow{siblings: make(map[string]bool)}
	return &analysis.Analyzer{
		Name:    "ctxflow",
		Doc:     "flags context.Background()/TODO() in library code and calls that drop an in-scope ctx",
		Collect: c.collect,
		Run:     c.run,
	}
}

type ctxflow struct {
	// siblings records, keyed by the ctx-free name, every function for
	// which a "<name>Context" variant taking a leading context exists.
	siblings map[string]bool
}

// funcKey identifies a function as package path, receiver base type (empty
// for plain functions), and name.
func funcKey(fn *types.Func) string {
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedOf(sig.Recv().Type()); named != nil {
			recv = named.Obj().Name()
		}
	}
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	return pkg + "." + recv + "." + fn.Name()
}

func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// collect indexes every fooContext(ctx, ...) function under the key of its
// ctx-free sibling name foo.
func (c *ctxflow) collect(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fd.Name.Name
			if !strings.HasSuffix(name, "Context") || name == "Context" {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := fn.Type().(*types.Signature)
			if sig.Params().Len() == 0 || !isContextType(sig.Params().At(0).Type()) {
				continue
			}
			key := funcKey(fn)
			c.siblings[strings.TrimSuffix(key, "Context")] = true
		}
	}
	return nil
}

func (c *ctxflow) run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pass.InTestFile(fd.Pos()) {
				// Tests are the root of their own cancellation chain:
				// manufacturing a context there is the invariant working,
				// not a violation of it.
				continue
			}
			c.checkFunc(pass, fd)
		}
	}
	return nil
}

type span struct{ lo, hi ast.Node }

func (c *ctxflow) checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	hasCtxParam := false
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if tv, ok := pass.Info.Types[field.Type]; ok && isContextType(tv.Type) {
				hasCtxParam = true
			}
		}
	}

	// Nil-guard bodies: `if x == nil { ... }` with x a context. Background
	// calls inside them restore a documented nil and are allowed.
	var guarded []span
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		cond, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || cond.Op.String() != "==" {
			return true
		}
		for lhs, rhs := range map[ast.Expr]ast.Expr{cond.X: cond.Y, cond.Y: cond.X} {
			if id, ok := rhs.(*ast.Ident); !ok || id.Name != "nil" {
				continue
			} else if tv, ok := pass.Info.Types[lhs]; ok && isContextType(tv.Type) {
				guarded = append(guarded, span{ifs.Body, ifs.Body})
			}
		}
		return true
	})
	inGuard := func(n ast.Node) bool {
		for _, g := range guarded {
			if n.Pos() >= g.lo.Pos() && n.End() <= g.hi.End() {
				return true
			}
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if fn.Pkg().Path() == "context" && (fn.Name() == "Background" || fn.Name() == "TODO") {
			if !inGuard(n) {
				pass.Reportf(call.Pos(), "context.%s() in library code severs the caller's cancellation chain; accept a ctx parameter (nil-guard it if it may be nil)", fn.Name())
			}
			return true
		}
		if hasCtxParam && c.siblings[funcKey(fn)] {
			pass.Reportf(call.Pos(), "call to %s drops the in-scope ctx; call %sContext(ctx, ...) instead", fn.Name(), fn.Name())
		}
		return true
	})
}

// calleeFunc resolves a call expression's static callee, if any.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.Info.Uses[id].(*types.Func)
	return fn
}
