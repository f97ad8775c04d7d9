package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one loaded, type-checked package: the unit RunPackage
// analyzes.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// A Loader type-checks packages against compiler export data produced
// by `go list -export`, so loading needs no network and no external
// modules: in-module packages are parsed from source, while every
// other dependency (stdlib included) is imported from its cached export
// file. One Loader shares a FileSet and an importer cache across all
// the packages it loads; later packages import the ones it parsed.
type Loader struct {
	// Dir is the directory `go list` runs in (anywhere inside the
	// module). Defaults to the current directory.
	Dir string

	fset    *token.FileSet
	exports map[string]string   // import path -> export data file
	source  map[string]*Package // import path -> package parsed from source
	gc      types.Importer
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load lists patterns (e.g. "./...") with export data and returns the
// matched packages parsed from source and type-checked (once per
// Loader). Unmatched dependencies are resolved from export data.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := l.list(append([]string{"-deps"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, p := range listed {
		if p.DepOnly || len(p.GoFiles) == 0 {
			continue
		}
		pkg := l.source[p.ImportPath]
		if pkg == nil {
			if pkg, err = l.loadSource(p.ImportPath, p.Dir, p.GoFiles); err != nil {
				return nil, err
			}
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadModule loads every package of the module containing Dir.
func (l *Loader) LoadModule() ([]*Package, error) {
	cmd := exec.Command("go", "list", "-m")
	cmd.Dir = l.Dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list -m: %v", err)
	}
	return l.Load(strings.TrimSpace(string(out)) + "/...")
}

// LoadDir parses and type-checks the .go files of one directory that
// is not necessarily part of a module (analysistest fixture packages).
// Imports resolve to packages loaded earlier or else through export
// data, so the harness first calls EnsureExports for the rest.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	return l.loadSource(filepath.Base(dir), dir, files)
}

// EnsureExports resolves export data for the given import paths (and
// their dependencies) so later LoadDir calls can import them.
func (l *Loader) EnsureExports(importPaths ...string) error {
	if len(importPaths) == 0 {
		return nil
	}
	_, err := l.list(append([]string{"-deps"}, importPaths...)...)
	return err
}

// list runs `go list -export -json` with the given arguments and folds
// the export files into the loader's map.
func (l *Loader) list(args ...string) ([]*listedPkg, error) {
	cmd := exec.Command("go", append([]string{
		"list", "-export", "-json=ImportPath,Dir,GoFiles,Export,DepOnly,Error",
	}, args...)...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", args, err, stderr.String())
	}
	if l.exports == nil {
		l.exports = map[string]string{}
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Fset returns the loader's shared FileSet.
func (l *Loader) Fset() *token.FileSet {
	if l.fset == nil {
		l.fset = token.NewFileSet()
	}
	return l.fset
}

// Import implements types.Importer: a package the loader parsed from
// source, else export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p := l.source[path]; p != nil {
		return p.Types, nil
	}
	if l.gc == nil {
		lookup := func(path string) (io.ReadCloser, error) {
			file, ok := l.exports[path]
			if !ok {
				return nil, fmt.Errorf("analysis: no export data for %q", path)
			}
			return os.Open(file)
		}
		l.gc = importer.ForCompiler(l.Fset(), "gc", lookup)
	}
	return l.gc.Import(path)
}

// loadSource parses the named files in dir and type-checks them as one
// package.
func (l *Loader) loadSource(importPath, dir string, fileNames []string) (*Package, error) {
	fset := l.Fset()
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	pkg, err := l.TypeCheck(importPath, dir, files)
	if err == nil {
		if l.source == nil {
			l.source = map[string]*Package{}
		}
		l.source[importPath] = pkg
	}
	return pkg, err
}

// TypeCheck type-checks already-parsed files (from the loader's own
// FileSet) as the package at importPath. Exposed so tests can
// re-typecheck a package with a mutated file without reloading its
// dependencies.
func (l *Loader) TypeCheck(importPath, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.Fset(), files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %v", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.Fset(),
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}
