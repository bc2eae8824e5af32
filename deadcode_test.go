package osdc_test

// The dead-surface gate. Every func and method declared in a non-test
// file under internal/ must be reached from non-test code somewhere: a
// binary under cmd/, a program under examples/, the benchmark module
// under bench/, or another internal/ package those reach. Code only a
// test runs is either moved into its package's export_test.go or
// deleted; see the verify skill for how to read a failure.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// reachabilityAllowlist names the seams that another package's test
// needs and no non-test code calls, each with the test that needs it.
// An entry is a reason to keep a declaration alive, so it must stay
// short: observe through a live API where one exists.
var reachabilityAllowlist = map[string]string{
	"lb.Pool.PickBackend":               "cmd/tukey-server/multireplica_test.go",
	"dfs.Brick.SetOnline":               "ablation_test.go",
	"gateway.Export.Read":               "internal/core/osdc_test.go",
	"gateway.Export.Write":              "internal/core/osdc_test.go",
	"mapred.Cluster.TotalSlots":         "internal/core/osdc_test.go",
	"monitor.UsageMonitor.PublicStatus": "concurrency_test.go, internal/core/osdc_test.go",
	"monitor.Master.Alerts":             "concurrency_test.go, internal/core/osdc_test.go",
	"tukey.Middleware.SessionCount":     "concurrency_test.go",
}

const maxAllowlist = 8

func TestEveryDeclarationIsReachable(t *testing.T) {
	if len(reachabilityAllowlist) > maxAllowlist {
		t.Fatalf("allowlist has %d entries, at most %d", len(reachabilityAllowlist), maxAllowlist)
	}
	tree := loadTree(t)
	fset, info := tree.fset, tree.info
	type decl struct {
		fn   *types.Func
		node *ast.FuncDecl
	}
	var decls []decl
	for _, p := range tree.pkgs {
		if !strings.HasPrefix(p.ImportPath, "osdc/internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || (fd.Recv == nil && fd.Name.Name == "init") {
					continue
				}
				decls = append(decls, decl{info.Defs[fd.Name].(*types.Func), fd})
			}
		}
	}

	declOf := map[*types.Func]*ast.FuncDecl{}
	for _, d := range decls {
		declOf[d.fn] = d.node
	}
	reached := map[*types.Func]bool{}
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if node := declOf[fn]; node != nil && node.Pos() <= id.Pos() && id.Pos() < node.End() {
			continue // recursion keeps nothing alive
		}
		reached[fn] = true
	}

	ifaces := interfacesOf(tree.checked, info)
	var offenders []string
	allowed := map[string]bool{}
	for _, d := range decls {
		if reached[d.fn] || satisfiesInterface(d.fn, ifaces) {
			continue
		}
		name := qualifiedName(d.fn)
		if _, ok := reachabilityAllowlist[name]; ok {
			allowed[name] = true
			continue
		}
		pos := fset.Position(d.node.Pos())
		offenders = append(offenders, fmt.Sprintf("%s:%d %s", relPath(pos.Filename), pos.Line, name))
	}
	for name, test := range reachabilityAllowlist {
		if !allowed[name] {
			t.Errorf("allowlist entry %s (for %s) is reached by non-test code or no longer declared; drop it", name, test)
		}
	}
	if len(offenders) > 0 {
		sort.Strings(offenders)
		t.Errorf("%d declarations under internal/ are reached by no non-test code; delete them, move them into export_test.go, or (a seam another package's test needs) allowlist them with that test:\n\t%s",
			len(offenders), strings.Join(offenders, "\n\t"))
	}
}

// interfacesOf gathers every interface a method could be called through:
// the named interfaces of every loaded package, std included, and the
// interface literals written in the checked code.
func interfacesOf(checked map[string]*types.Package, info *types.Info) []*types.Interface {
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			out = append(out, it)
		}
	}
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
					add(tn.Type())
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range checked {
		walk(p)
	}
	for _, tv := range info.Types {
		if tv.IsType() {
			add(tv.Type)
		}
	}
	for _, t := range stdAssertedInterfaces() {
		add(t)
	}
	return out
}

// stdAssertedInterfaces are the interfaces the errors package asserts
// inside function bodies (errors.Is, errors.As, errors.Unwrap). Export
// data carries no function bodies, so they are written out here.
func stdAssertedInterfaces() []types.Type {
	const src = `package std
type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "std.go", src, 0)
	if err != nil {
		panic(err)
	}
	pkg, err := new(types.Config).Check("std", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	var out []types.Type
	for _, name := range pkg.Scope().Names() {
		out = append(out, pkg.Scope().Lookup(name).Type())
	}
	return out
}

// satisfiesInterface reports whether fn is a method whose receiver type
// implements some interface that has a method of fn's name: a call
// through that interface reaches it without naming it.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	ptr := types.NewPointer(t)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(t, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}

// qualifiedName renders fn as pkg.Name or pkg.Recv.Name.
func qualifiedName(fn *types.Func) string {
	name := fn.Pkg().Name() + "." + fn.Name()
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name = fn.Pkg().Name() + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	return name
}
