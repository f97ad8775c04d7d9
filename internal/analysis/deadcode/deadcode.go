// Package deadcode implements the diffvet analyzer that keeps
// internal/ minimal: a package-level func, method, type, var or const
// there that no non-test file of the module (cmd/, benchmark/ and
// examples/ included) uses is dead for every binary. Uses inside a
// declaration itself, and a method's of its receiver type, do not
// count. Exempt: a method of a type implementing an interface that has
// it; Unwrap, which errors.Is/As call through interface literals; the
// members of an iota const block with a used member; init. A package
// no other package's non-test file imports is flagged at its package
// clause. A struct field declared there is dead when no non-test file
// of the module reads it (fields.go): being assigned, bumped, set in a
// composite literal or read by a codec.go append* encoder does not
// count, and every field of a struct whose values are compared or key
// a map counts as read. A keeper carries
// //diffvet:allow deadcode — <reason>, on a type or package clause
// covering its methods or package too.
package deadcode

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"

	"diffserve/internal/analysis"
)

// Analyzer is the module-scoped instance cmd/diffvet runs.
var Analyzer = New("diffserve/internal")

// New builds a deadcode analyzer that checks the declarations of the
// packages under the given import-path prefixes.
func New(scope ...string) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "deadcode",
		Doc:  "flag packages under internal/ that no non-test file of another package imports, package-level declarations there that no non-test file of the module uses, and struct fields there that none reads",
		RunModule: func(pass *analysis.ModulePass) error {
			run(pass, scope)
			return nil
		},
	}
}

func run(pass *analysis.ModulePass, scope []string) {
	used := map[types.Object]bool{}
	var decls []types.Object
	blocks := map[types.Object][]types.Object{} // iota const -> its block
	iotaObj := types.Universe.Lookup("iota")
	// The interfaces of the module and of the packages it imports.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	imported := map[string]bool{}
	for _, pkg := range pass.Pkgs {
		for _, p := range pkg.Types.Imports() {
			imported[p.Path()] = true
		}
		for _, p := range append(pkg.Types.Imports(), pkg.Types) {
			for _, name := range p.Scope().Names() {
				if it, ok := p.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	inScope := func(pkg *analysis.Package) bool {
		return slices.ContainsFunc(scope, func(p string) bool {
			return pkg.ImportPath == p || strings.HasPrefix(pkg.ImportPath, p+"/")
		})
	}
	checkFields(pass, inScope)
	for _, pkg := range pass.Pkgs {
		mine := inScope(pkg)
		if mine && !imported[pkg.ImportPath] {
			pass.Report(analysis.Diagnostic{Pos: pkg.Files[0].Package, Message: "package " + pkg.Types.Name() +
				" is imported by no non-test file of another package: delete it, or keep it with //diffvet:allow deadcode — reason"})
		}
		info := pkg.TypesInfo
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn, ok := info.Defs[fd.Name].(*types.Func)
					if !ok {
						continue
					}
					markUses(info, fd, used, fn, recvType(fn))
					if mine && fd.Name.Name != "init" && fd.Name.Name != "_" {
						decls = append(decls, fn)
					}
					continue
				}
				gd := d.(*ast.GenDecl)
				var block []types.Object
				delete(used, iotaObj)
				for _, spec := range gd.Specs {
					var self []types.Object
					switch s := spec.(type) {
					case *ast.TypeSpec:
						self = append(self, info.Defs[s.Name])
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.Name != "_" {
								self = append(self, info.Defs[id])
							}
						}
					}
					markUses(info, spec, used, self...)
					if mine {
						decls = append(decls, self...)
						block = append(block, self...)
					}
				}
				if used[iotaObj] {
					for _, c := range block {
						blocks[c] = block
					}
				}
			}
		}
	}
	for _, obj := range decls {
		if used[obj] || slices.ContainsFunc(blocks[obj], func(o types.Object) bool { return used[o] }) {
			continue
		}
		if fn, ok := obj.(*types.Func); ok && recvType(fn) != nil &&
			(pass.Allowed(recvType(fn).Pos()) || viaInterface(fn, ifaces)) {
			continue
		}
		pass.Report(analysis.Diagnostic{Pos: obj.Pos(), Message: obj.Name() +
			" is used by no non-test file of the module: delete it, or keep it with //diffvet:allow deadcode — reason"})
	}
}

// markUses records every object n refers to, except self.
func markUses(info *types.Info, n ast.Node, used map[types.Object]bool, self ...types.Object) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			obj := info.Uses[id]
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if obj != nil && !slices.Contains(self, obj) {
				used[obj] = true
			}
		}
		return true
	})
}

// recvType returns a method's receiver type name, nil for a function.
func recvType(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := types.Unalias(recv.Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	return t.(*types.Named).Obj()
}

// viaInterface reports whether m is called through an interface: one
// that has m and that m's receiver type implements.
func viaInterface(m *types.Func, ifaces []*types.Interface) bool {
	if m.Name() == "Unwrap" {
		return true
	}
	ptr := types.NewPointer(recvType(m).Type())
	for _, it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name()); obj != nil && types.Implements(ptr, it) {
			return true
		}
	}
	return false
}
