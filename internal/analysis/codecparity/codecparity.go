// Package codecparity implements the diffvet analyzer that keeps the
// wire-message structs and the hand-rolled binary codec in lockstep.
//
// The cluster package's wire messages are declared in wire.go and
// serialized by the hand-rolled binary codec in codec.go, which reads
// and writes each field explicitly. Its tests hold it to an
// encoding/json reference, which follows the struct tags by reflection
// and so tracks the structs automatically. Adding a field to a wire
// struct without touching codec.go silently drops that field on the
// wire — the exact bug shape the codec fuzzers only catch
// probabilistically, and only for field values the corpus happens to
// exercise.
//
// The analyzer applies to any package containing both a wire.go and a
// codec.go. A message struct is any exported struct declared in
// wire.go with at least one exported, json-tagged field. For each
// message struct the analyzer requires:
//
//   - every exported field carries a json tag that is not "-" (the
//     JSON reference serializes by tag; an untagged or omitted field
//     breaks its payload parity with the binary codec);
//   - no unexported fields (invisible to the JSON reference, so they
//     could never round-trip equally on both);
//   - every exported field is read at least once in codec.go outside
//     binarySizeHint (the binary encode path) and written at
//     least once in codec.go (the binary decode path). A read of the
//     written field inside its own assignment's RHS — the
//     capacity-reuse decode pattern
//     `m.Features = d.floatsInto(m.Features)` — is buffer reuse, not
//     encoding, and earns no encode-side credit.
//
// The read/write requirement is existence-based per field, which makes
// every scalar decode line (`m.Field = d.int()` and friends)
// individually load-bearing: deleting one leaves the field with no
// write and fails the build. The mutation regression test in this
// package pins that property against the real cluster codec.
package codecparity

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"reflect"
	"strings"

	"diffserve/internal/analysis"
)

// The analyzed file pair, and the codec-file function whose field
// reads don't count as encoding: a size hint presizes a buffer, and
// reading a slice's length there must not satisfy the encode-side
// requirement.
const (
	wireFileName  = "wire.go"
	codecFileName = "codec.go"
	sizeHintFunc  = "binarySizeHint"
)

// Analyzer is the instance cmd/diffvet runs.
var Analyzer = &analysis.Analyzer{
	Name: "codecparity",
	Doc: "every exported field of every wire.go message struct must carry a json tag and be read " +
		"(encode) and written (decode) by the binary codec in codec.go",
	Run: run,
}

// messageField is one exported field of a message struct.
type messageField struct {
	structName string
	name       string
	pos        ast.Node
	obj        *types.Var
}

func run(pass *analysis.Pass) error {
	var wireFile, codecFile *ast.File
	for _, f := range pass.Files {
		switch filepath.Base(pass.Fset.Position(f.Pos()).Filename) {
		case wireFileName:
			wireFile = f
		case codecFileName:
			codecFile = f
		}
	}
	if wireFile == nil || codecFile == nil {
		return nil // not a wire/codec package
	}

	fields := collectMessageFields(pass, wireFile)
	if len(fields) == 0 {
		return nil
	}
	byObj := map[*types.Var]*messageField{}
	for i := range fields {
		byObj[fields[i].obj] = &fields[i]
	}

	reads, writes := collectCodecAccesses(pass, codecFile, byObj)

	for i := range fields {
		f := &fields[i]
		if reads[f.obj] == 0 {
			pass.Reportf(f.pos.Pos(),
				"wire field %s.%s is never read by the binary codec in %s: the encode path drops it on the wire",
				f.structName, f.name, codecFileName)
		}
		if writes[f.obj] == 0 {
			pass.Reportf(f.pos.Pos(),
				"wire field %s.%s is never written by the binary decode path in %s: decoded messages lose it",
				f.structName, f.name, codecFileName)
		}
	}
	return nil
}

// collectMessageFields finds the message structs in the wire file and
// returns their exported fields. Tag problems (missing json tag,
// json:"-", unexported fields) are reported here.
func collectMessageFields(pass *analysis.Pass, wireFile *ast.File) []messageField {
	var out []messageField
	for _, decl := range wireFile.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok || !ts.Name.IsExported() {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			if !isMessageStruct(st) {
				continue
			}
			// Resolve the struct's type-checked field objects so codec
			// accesses can be matched by object identity.
			obj := pass.TypesInfo.Defs[ts.Name]
			named, _ := obj.Type().(*types.Named)
			tstruct, _ := named.Underlying().(*types.Struct)
			fieldObj := map[string]*types.Var{}
			if tstruct != nil {
				for i := 0; i < tstruct.NumFields(); i++ {
					fieldObj[tstruct.Field(i).Name()] = tstruct.Field(i)
				}
			}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if !name.IsExported() {
						pass.Reportf(name.Pos(),
							"wire struct %s has unexported field %s: invisible to the JSON codec, so it cannot round-trip equally on both codec paths",
							ts.Name.Name, name.Name)
						continue
					}
					tag, ok := jsonTag(fld)
					if !ok {
						pass.Reportf(name.Pos(),
							"wire field %s.%s has no json tag: the JSON codec would use the Go field name, diverging from the wire contract",
							ts.Name.Name, name.Name)
						continue
					} else if tag == "-" {
						pass.Reportf(name.Pos(),
							"wire field %s.%s is tagged json:\"-\": the JSON codec drops it while the binary codec may not — codec payloads diverge",
							ts.Name.Name, name.Name)
						continue
					}
					if fieldObj[name.Name] == nil {
						continue // unresolvable field: don't spuriously report
					}
					out = append(out, messageField{
						structName: ts.Name.Name,
						name:       name.Name,
						pos:        name,
						obj:        fieldObj[name.Name],
					})
				}
			}
		}
	}
	return out
}

// isMessageStruct: a struct with at least one exported field carrying
// a json tag. Internal helper structs (Clock) have neither.
func isMessageStruct(st *ast.StructType) bool {
	for _, fld := range st.Fields.List {
		if _, ok := jsonTag(fld); !ok {
			continue
		}
		for _, name := range fld.Names {
			if name.IsExported() {
				return true
			}
		}
	}
	return false
}

// jsonTag extracts the json tag name of a field, reporting whether a
// json tag exists at all.
func jsonTag(fld *ast.Field) (string, bool) {
	if fld.Tag == nil {
		return "", false
	}
	raw := strings.Trim(fld.Tag.Value, "`")
	tag, ok := reflect.StructTag(raw).Lookup("json")
	if !ok {
		return "", false
	}
	if i := strings.IndexByte(tag, ','); i >= 0 {
		tag = tag[:i]
	}
	return tag, true
}

// collectCodecAccesses counts, per message-struct field object, the
// selector reads and writes inside the codec file. A selector on the
// left-hand side of an assignment (or an inc/dec target) is a write;
// everything else is a read. Reads inside sizeHintFunc don't count.
func collectCodecAccesses(pass *analysis.Pass, codecFile *ast.File, fields map[*types.Var]*messageField) (reads, writes map[*types.Var]int) {
	reads = map[*types.Var]int{}
	writes = map[*types.Var]int{}

	for _, decl := range codecFile.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		inIgnored := fd.Name.Name == sizeHintFunc

		// Mark write-position selector nodes first, then classify every
		// field selector in one walk. A read of the written field inside
		// its own assignment's RHS — the capacity-reuse decode pattern
		// `m.Features = d.floatsInto(m.Features)` — is buffer reuse, not
		// encoding, so it must not satisfy the encode-side requirement.
		writePos := map[*ast.SelectorExpr]bool{}
		reuseRead := map[*ast.SelectorExpr]bool{}
		fieldOf := func(e ast.Expr) (*ast.SelectorExpr, *types.Var) {
			sel, ok := unparen(e).(*ast.SelectorExpr)
			if !ok {
				return nil, nil
			}
			selection, ok := pass.TypesInfo.Selections[sel]
			if !ok || selection.Kind() != types.FieldVal {
				return sel, nil
			}
			v, _ := selection.Obj().(*types.Var)
			return sel, v
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					sel, v := fieldOf(lhs)
					if sel == nil {
						continue
					}
					writePos[sel] = true
					if v == nil || len(n.Lhs) != len(n.Rhs) {
						continue
					}
					ast.Inspect(n.Rhs[i], func(rn ast.Node) bool {
						re, ok := rn.(ast.Expr)
						if !ok {
							return true
						}
						if rsel, rv := fieldOf(re); rsel != nil && rv == v {
							reuseRead[rsel] = true
						}
						return true
					})
				}
			case *ast.IncDecStmt:
				if sel, ok := unparen(n.X).(*ast.SelectorExpr); ok {
					writePos[sel] = true
				}
			}
			return true
		})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection, ok := pass.TypesInfo.Selections[sel]
			if !ok || selection.Kind() != types.FieldVal {
				return true
			}
			v, ok := selection.Obj().(*types.Var)
			if !ok {
				return true
			}
			if _, tracked := fields[v]; !tracked {
				return true
			}
			if writePos[sel] {
				writes[v]++
			} else if !inIgnored && !reuseRead[sel] {
				reads[v]++
			}
			return true
		})
	}
	return reads, writes
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
