package osdc_test

// The source loader the tree gates share: both modules listed with
// `go list -deps -json ./...` (root and bench/), every osdc package parsed
// and type-checked from source, once per test binary.

import (
	"bytes"
	"encoding/json"
	"errors"
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
	"sync"
	"testing"
)

// sourceTree is every osdc package of both modules, in dependency order,
// with its non-test files parsed and type-checked into one types.Info.
type sourceTree struct {
	fset    *token.FileSet
	pkgs    []loadedPackage
	checked map[string]*types.Package
	info    *types.Info
}

type loadedPackage struct {
	listedPackage
	files []*ast.File // GoFiles, in order
}

type listedPackage struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Standard     bool
	Module       *struct{ Path string }
}

var (
	treeOnce   sync.Once
	loadedTree *sourceTree
	treeErr    error
)

// loadTree returns the shared tree, loading it on first use.
func loadTree(t *testing.T) *sourceTree {
	t.Helper()
	treeOnce.Do(func() { loadedTree, treeErr = loadSourceTree() })
	if treeErr != nil {
		t.Fatal(treeErr)
	}
	return loadedTree
}

func loadSourceTree() (*sourceTree, error) {
	var listed []listedPackage
	seen := map[string]bool{}
	for _, dir := range []string{".", "bench"} {
		pkgs, err := goListDeps(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if !p.Standard && !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				listed = append(listed, p)
			}
		}
	}

	tree := &sourceTree{
		fset:    token.NewFileSet(),
		checked: map[string]*types.Package{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	imp := &sourceImporter{checked: tree.checked, std: importer.Default()}
	// listed is in dependency order, so every import is checked before
	// the package that needs it.
	for _, p := range listed {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(tree.fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, tree.fset, files, tree.info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		tree.checked[p.ImportPath] = pkg
		tree.pkgs = append(tree.pkgs, loadedPackage{p, files})
	}
	return tree, nil
}

// goListDeps lists the packages matched by ./... in dir and everything
// they import, dependencies first, with the build constraints applied.
func goListDeps(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// sourceImporter hands back the osdc packages the loader has checked from
// source and defers everything else (the standard library) to export
// data. One instance serves every package, so a std type is one object.
type sourceImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (s *sourceImporter) Import(path string) (*types.Package, error) {
	if p, ok := s.checked[path]; ok {
		return p, nil
	}
	return s.std.Import(path)
}

// relPath renders a loaded file's name relative to the working directory,
// the repository root under go test.
func relPath(file string) string {
	wd, _ := os.Getwd()
	if rel, err := filepath.Rel(wd, file); err == nil {
		return rel
	}
	return file
}
