package deadcode

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"diffserve/internal/analysis"
)

// checkFields reports the named fields of the structs the in-scope
// packages declare that no non-test file of the module reads. Not a
// read: an assignment's left side, an inc/dec operand, a
// composite-literal key, and a selection inside an append* func of a
// codec.go (a wire message's encoder). Every field of a struct type is
// read when its values are compared or key a map.
func checkFields(pass *analysis.ModulePass, mine func(*analysis.Package) bool) {
	read := map[*types.Var]bool{}
	var readAll func(t types.Type)
	readAll = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := range u.NumFields() {
				if f := u.Field(i); !read[f.Origin()] {
					read[f.Origin()] = true
					readAll(f.Type())
				}
			}
		case *types.Array:
			readAll(u.Elem())
		}
	}
	var fields []field
	for _, pkg := range pass.Pkgs {
		info := pkg.TypesInfo
		for _, tv := range info.Types {
			if m, ok := tv.Type.(*types.Map); ok {
				readAll(m.Key())
			}
		}
		declares := mine(pkg)
		for _, f := range pkg.Files {
			if declares {
				ast.Inspect(f, func(n ast.Node) bool {
					if s, ok := n.(*ast.TypeSpec); ok {
						fields = append(fields, structFields(info, s.Type, s.Name.Name)...)
						return false
					}
					if s, ok := n.(*ast.StructType); ok {
						fields = append(fields, structFields(info, s, "struct")...)
						return false
					}
					return true
				})
			}
			encoder := filepath.Base(pkg.Fset.Position(f.Package).Filename) == "codec.go"
			written := map[ast.Expr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					return !encoder || !strings.HasPrefix(n.Name.Name, "append")
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						written[ast.Unparen(lhs)] = true
					}
				case *ast.IncDecStmt:
					written[ast.Unparen(n.X)] = true
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						readAll(info.TypeOf(n.X))
					}
				case *ast.SwitchStmt:
					if n.Tag != nil {
						readAll(info.TypeOf(n.Tag))
					}
				case *ast.SelectorExpr:
					if sel := info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal && !written[n] {
						read[sel.Obj().(*types.Var).Origin()] = true
					}
				}
				return true
			})
		}
	}
	for _, f := range fields {
		if !read[f.v] {
			pass.Report(analysis.Diagnostic{Pos: f.v.Pos(), Message: "field " + f.name +
				" is read by no non-test file of the module: delete it, or keep it with //diffvet:allow deadcode — reason"})
		}
	}
}

// A field is a struct field and the name it is reported by.
type field struct {
	v    *types.Var
	name string
}

// structFields lists the named fields of every struct type in the
// type expression, each named owner.Field.
func structFields(info *types.Info, expr ast.Expr, owner string) []field {
	var out []field
	ast.Inspect(expr, func(n ast.Node) bool {
		if s, ok := n.(*ast.StructType); ok {
			for _, fl := range s.Fields.List {
				for _, id := range fl.Names {
					if v, ok := info.Defs[id].(*types.Var); ok && id.Name != "_" {
						out = append(out, field{v, owner + "." + id.Name})
					}
				}
			}
		}
		return true
	})
	return out
}
