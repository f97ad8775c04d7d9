// Package poolownership implements the diffvet analyzer that enforces
// the pooled-message ownership discipline from internal/cluster/pool.go.
//
// A value obtained from a typed sync.Pool acquire helper is owned by
// exactly one goroutine and must end its life in exactly one of two
// ways: a release call (ReleaseMessage, putFrame, ... — any function
// that Puts into a sync.Pool) or an ownership handoff (returned,
// passed to another function, stored, or sent). Violating either
// direction corrupts the next decode silently: a use after release
// scribbles on storage the pool may already have handed to another
// goroutine, and an acquire that neither releases nor hands off leaks
// warm buffers until the pool refills them cold.
//
// The analyzer needs no configuration: it classifies package
// functions by body — a function whose body calls (*sync.Pool).Get
// and returns a result is an acquire helper; one whose body calls
// (*sync.Pool).Put is a release helper — and then checks every
// function in the package:
//
//   - use-after-release: after a non-deferred release of a variable,
//     any sequentially-reachable use of that variable in the same
//     function is reported (sibling branches and releases followed by
//     return/break/continue are understood to end the path; an
//     intervening reassignment starts a fresh value and clears the
//     taint).
//   - leaked acquire: a variable bound directly from an acquire
//     helper must be released, deferred-released, or handed off
//     (returned, passed as a call argument, assigned away, stored in
//     a composite, or sent on a channel) somewhere in the function.
//
// The checks are function-local and name-based by design: the wire
// path's handlers acquire and release within one frame dispatch, so
// the realistic bug shapes — releasing and then touching the message,
// or forgetting the release entirely — are all local.
package poolownership

import (
	"go/ast"
	"go/token"
	"go/types"

	"diffserve/internal/analysis"
)

// Analyzer is the instance cmd/diffvet runs. It self-scopes: packages
// with no sync.Pool helpers produce no work.
var Analyzer = &analysis.Analyzer{
	Name: "poolownership",
	Doc: "enforce pooled-message ownership: no use after ReleaseMessage/put-helper calls, " +
		"and every pool acquire must be released or handed off",
	Run: run,
}

func run(pass *analysis.Pass) error {
	acquires, releases := classifyHelpers(pass)
	if len(releases) == 0 && len(acquires) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkFunc(pass, fd, acquires, releases)
			}
		}
	}
	return nil
}

// classifyHelpers splits the package's functions into acquire helpers
// (body calls (*sync.Pool).Get and the function returns something) and
// release helpers (body calls (*sync.Pool).Put).
func classifyHelpers(pass *analysis.Pass) (acquires, releases map[types.Object]bool) {
	acquires = map[types.Object]bool{}
	releases = map[types.Object]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			gets, puts := false, false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch poolMethod(pass, call) {
				case "Get":
					gets = true
				case "Put":
					puts = true
				}
				return true
			})
			if gets && fd.Type.Results != nil && len(fd.Type.Results.List) > 0 {
				acquires[obj] = true
			}
			if puts {
				releases[obj] = true
			}
		}
	}
	return acquires, releases
}

// poolMethod reports whether call is a method call on sync.Pool and
// returns the method name ("Get", "Put", or "").
func poolMethod(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	if named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Pool" {
		return fn.Name()
	}
	return ""
}

// releaseEvent is one release call inside the function under check.
type releaseEvent struct {
	call     *ast.CallExpr
	obj      types.Object // the released variable
	deferred bool
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, acquires, releases map[types.Object]bool) {
	info := pass.TypesInfo

	// calledHelper resolves a call to a package-level helper object.
	calledHelper := func(call *ast.CallExpr) types.Object {
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return nil
		}
		return info.Uses[id]
	}
	// releasedVar returns the variable object a release call frees: the
	// single bare-identifier argument of a release helper or a
	// (*sync.Pool).Put call.
	releasedVar := func(call *ast.CallExpr) types.Object {
		isRelease := releases[calledHelper(call)] || poolMethod(pass, call) == "Put"
		if !isRelease {
			return nil
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok {
					return v
				}
			}
		}
		return nil
	}

	// Pass 1: collect events — acquires bound to variables, releases,
	// handoffs, and kills (reassignments).
	type acquireEvent struct {
		pos token.Pos
		obj types.Object
	}
	var acquired []acquireEvent
	var released []releaseEvent
	handedOff := map[types.Object]bool{}
	var kills []acquireEvent

	markHandoffIdents := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok {
				handedOff[v] = true
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if obj := releasedVar(n.Call); obj != nil {
				released = append(released, releaseEvent{call: n.Call, obj: obj, deferred: true})
				return false // don't double-count via the CallExpr case
			}
		case *ast.CallExpr:
			if obj := releasedVar(n); obj != nil {
				released = append(released, releaseEvent{call: n, obj: obj})
				return true
			}
			// Bare-identifier arguments to any non-release call are
			// ownership handoffs.
			for _, arg := range n.Args {
				markHandoffIdents(arg)
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				markHandoffIdents(r)
			}
		case *ast.SendStmt:
			markHandoffIdents(n.Value)
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				markHandoffIdents(el)
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					markHandoffIdents(kv.Value)
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					var obj types.Object
					if n.Tok == token.DEFINE {
						obj = info.Defs[id]
					} else {
						obj = info.Uses[id]
					}
					if obj != nil {
						kills = append(kills, acquireEvent{id.Pos(), obj})
					}
				}
			}
			// RHS identifiers assigned somewhere else are handoffs
			// (aliasing: we can no longer track the value's lifetime) —
			// unless the RHS is the acquire call itself.
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok && acquires[calledHelper(call)] {
					if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
						var obj types.Object
						if n.Tok == token.DEFINE {
							obj = info.Defs[id]
						} else {
							obj = info.Uses[id]
						}
						if obj != nil {
							acquired = append(acquired, acquireEvent{id.Pos(), obj})
						}
					}
					return true
				}
			}
			for _, rhs := range n.Rhs {
				markHandoffIdents(rhs)
			}
		}
		return true
	})

	// Leaked acquires: no release and no handoff anywhere in the
	// function.
	for _, a := range acquired {
		ok := handedOff[a.obj]
		for _, r := range released {
			if r.obj == a.obj {
				ok = true
			}
		}
		if !ok {
			pass.Reportf(a.pos,
				"%s acquired from a pool but never released or handed off: call the matching release helper (or hand ownership to another function)",
				a.obj.Name())
		}
	}

	// Use-after-release: poison sequentially-reachable statements after
	// each non-deferred release and flag uses of the released variable.
	for _, r := range released {
		if r.deferred {
			continue
		}
		poison := poisonRanges(fd.Body, r.call)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || info.Uses[id] != r.obj {
				return true
			}
			if id.Pos() <= r.call.End() {
				return true
			}
			if !inRanges(poison, id.Pos()) {
				return true
			}
			// A reassignment between release and use starts a fresh
			// value: the taint does not survive it. (The kill itself is
			// an LHS identifier — skip flagging it, too.)
			for _, k := range kills {
				if k.obj == r.obj && k.pos > r.call.End() && k.pos <= id.Pos() {
					return true
				}
			}
			pass.Reportf(id.Pos(),
				"use of %s after it was released to the pool at line %d: released storage may already back another goroutine's decode",
				id.Name, pass.Fset.Position(r.call.Pos()).Line)
			return true
		})
	}
}

// poisonRanges computes the position ranges sequentially reachable
// after a release call: the statements following the release in its
// innermost statement list, propagated outward through enclosing
// lists until a list terminates the path (return, branch, or panic at
// or after the release). Sibling branches of an if/switch never make
// it into the ranges, so path-exclusive uses are not flagged.
func poisonRanges(body *ast.BlockStmt, call *ast.CallExpr) []posRange {
	path := pathTo(body, call) // outermost ... innermost
	var out []posRange
	for i := len(path) - 1; i >= 0; i-- {
		var list []ast.Stmt
		switch n := path[i].(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			continue
		}
		// The path node one step inward is (or is inside) a statement
		// of this list.
		idx := -1
		for j, s := range list {
			if i+1 < len(path) && s == path[i+1] {
				idx = j
				break
			}
		}
		if idx == -1 {
			continue
		}
		for _, s := range list[idx+1:] {
			out = append(out, posRange{s.Pos(), s.End()})
		}
		if terminates(list[idx:]) {
			return out
		}
	}
	return out
}

type posRange struct{ lo, hi token.Pos }

func inRanges(rs []posRange, p token.Pos) bool {
	for _, r := range rs {
		if p >= r.lo && p <= r.hi {
			return true
		}
	}
	return false
}

// pathTo returns the ancestor chain from root down to target
// (inclusive), or nil if target is not under root.
func pathTo(root, target ast.Node) []ast.Node {
	var stack, path []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if n == target && path == nil {
			path = append([]ast.Node{}, stack...)
		}
		return path == nil
	})
	return path
}

// terminates reports whether the statement suffix unconditionally
// leaves the enclosing list: a return, a branch statement, or a call
// to panic at the top level of the suffix.
func terminates(suffix []ast.Stmt) bool {
	for _, s := range suffix {
		switch s := s.(type) {
		case *ast.ReturnStmt, *ast.BranchStmt:
			return true
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					return true
				}
			}
		}
	}
	return false
}
