// Package errtaxonomy enforces the public error contract of the root xic
// package: every error escaping an exported function must speak the
// documented taxonomy — be (or wrap) a *SpecError/*ParseError-style type
// declared in the package, or a declared sentinel — so callers can always
// dispatch with errors.Is/errors.As. It reports return statements in
// exported functions whose error operand is a raw cross-package call
// result, an errors.New value, or a fmt.Errorf that does not %w-wrap a
// taxonomy error.
//
// Classification is syntactic but traces local error variables through
// their assignments within the function, so the common
//
//	v, err := otherpkg.Do()
//	if err != nil { return err }     // flagged
//	if err != nil { return wrap(err) } // ok: same-package wrap helper
//
// shapes are both handled. Anything intentionally stringly needs an
// //xic:ignore errtaxonomy <reason>.
package errtaxonomy

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"xic/internal/analysis"
)

// New constructs the analyzer. It inspects only the package named xic, so
// internal packages keep their cheap raw errors (they are wrapped at the
// API boundary).
func New() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "errtaxonomy",
		Doc:  "reports errors escaping exported xic functions without being or wrapping a taxonomy error",
		Run:  run,
	}
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() != "xic" {
		return nil
	}
	c := &checker{pass: pass, errType: types.Universe.Lookup("error").Type()}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !exportedFunc(pass, fd) {
				continue
			}
			c.checkFunc(fd)
		}
	}
	return nil
}

// exportedFunc reports whether fd is part of the exported API: an exported
// function, or an exported method on an exported type.
func exportedFunc(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if !fd.Name.IsExported() {
		return false
	}
	if fd.Recv == nil {
		return true
	}
	fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	named := namedOf(sig.Recv().Type())
	return named != nil && named.Obj().Exported()
}

func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}

type checker struct {
	pass    *analysis.Pass
	errType types.Type
	// fd is the function under inspection; assignments are traced within
	// its whole body.
	fd *ast.FuncDecl
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	fn, ok := c.pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sig := fn.Type().(*types.Signature)
	var errIdx []int
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), c.errType) {
			errIdx = append(errIdx, i)
		}
	}
	if len(errIdx) == 0 {
		return
	}
	c.fd = fd

	for _, ret := range returnsOf(fd) {
		switch {
		case len(ret.Results) == sig.Results().Len():
			for _, i := range errIdx {
				c.checkReturn(ret.Results[i])
			}
		case len(ret.Results) == 1 && sig.Results().Len() > 1:
			// return f() — the whole tuple comes from one call.
			c.checkReturn(ret.Results[0])
		case len(ret.Results) == 0:
			// Naked return: classify the named error results.
			for _, i := range errIdx {
				v := sig.Results().At(i)
				if v.Name() != "" {
					if ok, msg := c.classifyObj(v, map[types.Object]bool{}); !ok {
						c.pass.Reportf(ret.Pos(), "%s", msg)
					}
				}
			}
		}
	}
}

// returnsOf gathers the return statements belonging to fd itself,
// excluding those of nested function literals.
func returnsOf(fd *ast.FuncDecl) []*ast.ReturnStmt {
	var out []*ast.ReturnStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			out = append(out, s)
		}
		return true
	})
	return out
}

func (c *checker) checkReturn(e ast.Expr) {
	if ok, msg := c.classify(e, map[types.Object]bool{}); !ok {
		c.pass.Reportf(e.Pos(), "%s", msg)
	}
}

// classify decides whether an error-valued expression satisfies the
// taxonomy. It is permissive on shapes it cannot see through (struct
// fields, channel receives): the teeth are in call and ident
// classification, which cover the real API surface.
func (c *checker) classify(e ast.Expr, seen map[types.Object]bool) (bool, string) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if x.Name == "nil" {
			return true, ""
		}
		obj := c.pass.Info.Uses[x]
		if obj == nil {
			obj = c.pass.Info.Defs[x]
		}
		if obj == nil {
			return true, ""
		}
		return c.classifyObj(obj, seen)
	case *ast.SelectorExpr:
		// pkg.ErrSentinel or a field access: allow package-level error
		// vars (sentinels by construction); be permissive on fields.
		if obj, ok := c.pass.Info.Uses[x.Sel]; ok {
			if v, ok := obj.(*types.Var); ok && !v.IsField() && packageLevel(v) {
				return true, ""
			}
		}
		return true, ""
	case *ast.CallExpr:
		return c.classifyCall(x, seen)
	case *ast.UnaryExpr:
		return c.classify(x.X, seen)
	case *ast.CompositeLit:
		if c.allowedType(c.pass.Info.TypeOf(x)) {
			return true, ""
		}
		return false, "composite error value escapes the exported xic API without being a taxonomy type"
	case *ast.TypeAssertExpr:
		return true, ""
	default:
		return true, ""
	}
}

// classifyObj classifies the value held by a variable at return time by
// looking at every assignment to it in the function.
func (c *checker) classifyObj(obj types.Object, seen map[types.Object]bool) (bool, string) {
	if seen[obj] {
		return true, ""
	}
	seen[obj] = true
	if c.allowedType(obj.Type()) {
		return true, ""
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return true, ""
	}
	if packageLevel(v) || paramOf(v, c.pass, c.fd) {
		// Sentinels and caller-supplied errors are the caller's concern.
		return true, ""
	}

	bad := ""
	for _, src := range c.assignmentsTo(obj) {
		if ok, msg := c.classify(src, seen); !ok {
			bad = msg
		}
	}
	if bad != "" {
		return false, bad
	}
	return true, ""
}

// assignmentsTo finds the expressions assigned to obj anywhere in the
// function body (including inside nested literals — a callback may fill a
// captured err).
func (c *checker) assignmentsTo(obj types.Object) []ast.Expr {
	var out []ast.Expr
	record := func(names []ast.Expr, values []ast.Expr) {
		for i, lhs := range names {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			var lobj types.Object
			if d := c.pass.Info.Defs[id]; d != nil {
				lobj = d
			} else if u := c.pass.Info.Uses[id]; u != nil {
				lobj = u
			}
			if lobj != obj {
				continue
			}
			if len(values) == len(names) {
				out = append(out, values[i])
			} else if len(values) == 1 {
				out = append(out, values[0]) // tuple source: classify the call
			}
		}
	}
	ast.Inspect(c.fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			record(s.Lhs, s.Rhs)
		case *ast.ValueSpec:
			if len(s.Values) > 0 {
				lhs := make([]ast.Expr, len(s.Names))
				for i, name := range s.Names {
					lhs[i] = name
				}
				record(lhs, s.Values)
			}
		}
		return true
	})
	return out
}

func (c *checker) classifyCall(call *ast.CallExpr, seen map[types.Object]bool) (bool, string) {
	// Conversion to a taxonomy type.
	if tv, ok := c.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if c.allowedType(tv.Type) {
			return true, ""
		}
		if len(call.Args) == 1 {
			return c.classify(call.Args[0], seen)
		}
		return true, ""
	}
	fn := calleeFunc(c.pass, call)
	if fn == nil {
		return true, "" // dynamic call through a function value
	}
	if fn.Pkg() == c.pass.Pkg {
		// Same-package helpers (wrapDTDError, asStageError, constructors)
		// are trusted to emit taxonomy errors.
		return true, ""
	}
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	switch {
	case path == "errors" && fn.Name() == "New":
		return false, "untyped errors.New error escapes the exported xic API; return a taxonomy error or a declared sentinel"
	case path == "fmt" && fn.Name() == "Errorf":
		return c.classifyErrorf(call, seen)
	case path == "errors" && (fn.Name() == "Join" || fn.Name() == "Unwrap"):
		for _, arg := range call.Args {
			if ok, _ := c.classify(arg, seen); ok {
				return true, ""
			}
		}
		return true, ""
	}
	name := fn.Name()
	if path != "" {
		name = lastSegment(path) + "." + name
	}
	return false, "error from " + name + " escapes the exported xic API without taxonomy wrapping"
}

// classifyErrorf allows fmt.Errorf only when it %w-wraps an argument that
// itself satisfies the taxonomy.
func (c *checker) classifyErrorf(call *ast.CallExpr, seen map[types.Object]bool) (bool, string) {
	if len(call.Args) == 0 {
		return false, "fmt.Errorf escapes the exported xic API without %w-wrapping a taxonomy error"
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	wraps := false
	if ok {
		if format, err := strconv.Unquote(lit.Value); err == nil {
			wraps = strings.Contains(format, "%w")
		}
	}
	if wraps {
		for _, arg := range call.Args[1:] {
			if ok, _ := c.classify(arg, seen); ok {
				return true, ""
			}
		}
	}
	return false, "fmt.Errorf escapes the exported xic API without %w-wrapping a taxonomy error"
}

// allowedType reports whether t (behind a pointer) is a taxonomy error
// type: one declared in the xic package itself — SpecError, ParseError
// and future members — or one re-exported from it under an
// exported alias (type InvalidDocumentError = docsession.…), which makes
// the internal declaration part of the public contract all the same.
func (c *checker) allowedType(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	errIface := c.errType.Underlying().(*types.Interface)
	if !types.Implements(named, errIface) && !types.Implements(types.NewPointer(named), errIface) {
		return false
	}
	if named.Obj().Pkg() == c.pass.Pkg {
		return true
	}
	return c.aliasedInPkg(named)
}

// aliasedInPkg reports whether the inspected package re-exports named
// under an exported type alias.
func (c *checker) aliasedInPkg(named *types.Named) bool {
	scope := c.pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || !tn.IsAlias() {
			continue
		}
		if namedOf(tn.Type()) == named {
			return true
		}
	}
	return false
}

func packageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// paramOf reports whether v is a parameter or receiver of fd.
func paramOf(v *types.Var, pass *analysis.Pass, fd *ast.FuncDecl) bool {
	check := func(fields *ast.FieldList) bool {
		if fields == nil {
			return false
		}
		for _, field := range fields.List {
			for _, name := range field.Names {
				if pass.Info.Defs[name] == v {
					return true
				}
			}
		}
		return false
	}
	return check(fd.Recv) || check(fd.Type.Params)
}

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

func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
