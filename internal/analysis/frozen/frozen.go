// Package frozen enforces the publish-then-freeze discipline that makes
// Schema, Spec, core.Engine, registry entries, and compiled automata safe
// to share across goroutines: once such a value escapes its constructor it
// must never be mutated. A struct type opts in by carrying an
//
//	// xic:frozen
//
// line in its doc comment. The analyzer then reports every write to a
// field of that type (including writes through nested selectors and index
// expressions) unless the write occurs in a sanctioned place:
//
//   - a function in the type's own package whose results include T or *T —
//     the constructor heuristic, which covers New-style builders and
//     with-er copies like Spec.WithSolveOptions;
//   - a function literal passed to (*sync.Once).Do, the engine's lazy-init
//     pattern, where the Once itself provides the happens-before edge;
//   - a func init() in the defining package.
//
// Anything else needs an //xic:ignore frozen <reason> suppression.
package frozen

import (
	"go/ast"
	"go/types"
	"strings"

	"xic/internal/analysis"
)

// Marker is the doc-comment opt-in read by the analyzer.
const Marker = "xic:frozen"

// New constructs the analyzer. Frozen type objects are gathered across all
// packages in Collect so writes in other packages are caught too.
func New() *analysis.Analyzer {
	f := &frozen{types: make(map[types.Object]bool)}
	return &analysis.Analyzer{
		Name:    "frozen",
		Doc:     "reports field writes to // xic:frozen struct types outside their constructors",
		Collect: f.collect,
		Run:     f.run,
	}
}

type frozen struct {
	// types holds the *types.TypeName of every marked struct. Object
	// identity is canonical across packages because the whole module is
	// type-checked in one session.
	types map[types.Object]bool
}

func (f *frozen) collect(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if !hasMarker(ts.Doc) && !hasMarker(ts.Comment) && !(len(gd.Specs) == 1 && hasMarker(gd.Doc)) {
					continue
				}
				if obj := pass.Info.Defs[ts.Name]; obj != nil {
					f.types[obj] = true
				}
			}
		}
	}
	return nil
}

func hasMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == Marker {
			return true
		}
	}
	return false
}

func (f *frozen) run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &walker{
				f:          f,
				pass:       pass,
				constructs: f.constructedTypes(pass, fd),
				isInit:     fd.Recv == nil && fd.Name.Name == "init",
			}
			w.stmt(fd.Body, false)
		}
	}
	return nil
}

// constructedTypes returns the frozen types a function may legitimately
// write: those appearing (possibly behind a pointer) among its results,
// provided the function lives in the type's defining package.
func (f *frozen) constructedTypes(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if fd.Type.Results == nil {
		return out
	}
	for _, field := range fd.Type.Results.List {
		tv, ok := pass.Info.Types[field.Type]
		if !ok {
			continue
		}
		named := namedOf(tv.Type)
		if named == nil {
			continue
		}
		obj := named.Obj()
		if f.types[obj] && obj.Pkg() == pass.Pkg {
			out[obj] = true
		}
	}
	return out
}

func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// walker traverses a function body tracking whether the current region is
// inside a (*sync.Once).Do literal.
type walker struct {
	f          *frozen
	pass       *analysis.Pass
	constructs map[types.Object]bool
	isInit     bool
}

func (w *walker) stmt(n ast.Node, inOnce bool) {
	if n == nil {
		return
	}
	switch s := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			w.checkWrite(lhs, inOnce)
		}
		for _, rhs := range s.Rhs {
			w.expr(rhs, inOnce)
		}
	case *ast.IncDecStmt:
		w.checkWrite(s.X, inOnce)
	default:
		// Generic traversal: descend into children, treating statements
		// and expressions uniformly but keeping the inOnce flag.
		for _, child := range childNodes(n) {
			if call, ok := child.(*ast.CallExpr); ok && w.isOnceDo(call) {
				for _, arg := range call.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						w.stmt(lit.Body, true)
					} else {
						w.stmt(arg, inOnce)
					}
				}
				w.stmt(call.Fun, inOnce)
				continue
			}
			w.stmt(child, inOnce)
		}
	}
}

// expr walks an expression for nested statements (function literals,
// once.Do calls inside expressions).
func (w *walker) expr(e ast.Expr, inOnce bool) {
	w.stmt(e, inOnce)
}

func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}

// isOnceDo reports whether a call is (*sync.Once).Do.
func (w *walker) isOnceDo(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Do" {
		return false
	}
	selection, ok := w.pass.Info.Selections[sel]
	if !ok {
		return false
	}
	named := namedOf(selection.Recv())
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Once"
}

// checkWrite reports the write if any selector along the LHS chain is a
// field of a frozen type and no sanction applies.
func (w *walker) checkWrite(lhs ast.Expr, inOnce bool) {
	if inOnce || w.isInit {
		return
	}
	for e := ast.Unparen(lhs); ; {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if sel, ok := w.pass.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				if named := namedOf(sel.Recv()); named != nil {
					obj := named.Obj()
					if w.f.types[obj] && !w.constructs[obj] {
						w.pass.Reportf(lhs.Pos(), "write to field %s of frozen type %s outside its constructors", x.Sel.Name, obj.Name())
						return
					}
				}
			}
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
		default:
			return
		}
	}
}
