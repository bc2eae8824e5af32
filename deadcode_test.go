package osdc_test

// The dead-surface gate: rapid type analysis (Bacon & Sweeney, OOPSLA
// 1996) over the shared source tree. The roots are the mains of cmd/ and
// bench/, every package initialiser, and the seams on
// reachabilityAllowlist. A function is live once live code names it. A
// method that satisfies an interface is live once live code also builds
// or names its receiver type, since a call through the interface reaches
// it unnamed; for an interface the tree declares, live code must select
// that interface method too. The field rules (deadfields_test.go) judge
// what live code reads and writes, wire-format structs aside, and what a
// root returns counts as read: the seam's test reads it. A failure lists
// `kind file:line name` per finding:
//
//   - unreached: a func or method under internal/ that no live code
//     reaches. Delete it with any test that checks only it, or move it into
//     export_test.go if its own package's tests need it; a seam another
//     package's test needs, that no live API can observe, is allowlisted
//     with that test. A deletion can orphan callees: re-run until green.
//   - unread: a field, exported or not, that no live code reads. It is
//     kept for nothing: delete it, its writes, the computation and any
//     parameter that only fed it, keeping an RNG draw in place.
//   - unset: an exported field that no live code writes, so every caller
//     runs on its zero value or its package's default (a write under
//     `if x.F == c`, `<= c` or `< c` in the field's own package does not
//     count). The knob becomes the constant its one value already is.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// reachabilityAllowlist names the seams another package's test needs, each
// with that test. Keep it short: observe through a live API where one can.
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

func TestEveryDeclarationIsReachable(t *testing.T) {
	if len(reachabilityAllowlist) > 8 {
		t.Fatalf("allowlist has %d entries, at most 8", len(reachabilityAllowlist))
	}
	tree := loadTree(t)
	files := map[*types.Package][]*ast.File{}
	for _, p := range tree.pkgs {
		files[tree.checked[p.ImportPath]] = p.files
	}
	main := func(fn *types.Func) bool {
		return fn.Pkg().Name() == "main" && fn.Name() == "main" && fn.Signature().Recv() == nil
	}
	seam := func(fn *types.Func) bool { _, ok := reachabilityAllowlist[qualifiedName(fn)]; return ok }
	judged := func(p *types.Package) bool { return strings.HasPrefix(p.Path(), "osdc/internal/") }
	dead := deadSurface(tree.info, files, main, judged)
	for name, test := range reachabilityAllowlist {
		if _, ok := dead["unreached "+name]; !ok {
			t.Errorf("allowlist entry %s (for %s) is reached by non-test code or no longer declared; drop it", name, test)
		}
	}
	var lines []string
	for finding, pos := range deadSurface(tree.info, files, func(fn *types.Func) bool { return main(fn) || seam(fn) }, judged) {
		kind, name, _ := strings.Cut(finding, " ")
		p := tree.fset.Position(pos)
		lines = append(lines, fmt.Sprintf("%-9s %s:%d %s", kind, relPath(p.Filename), p.Line, name))
	}
	if sort.Strings(lines); len(lines) > 0 {
		t.Errorf("%d findings (the verdicts are in deadcode_test.go's header):\n\t%s", len(lines), strings.Join(lines, "\n\t"))
	}
}

// deadSurface runs the analysis over one types.Info: files holds each
// package's non-test syntax, root picks the funcs the walk starts from,
// and judged the packages whose funcs and fields are reported. It maps
// each finding, "kind name", to its declaration.
func deadSurface(info *types.Info, files map[*types.Package][]*ast.File, root func(*types.Func) bool, judged func(*types.Package) bool) map[string]token.Pos {
	a := &rta{fieldRules: newFieldRules(info, files), ifaces: map[string][]*types.Interface{}, ours: map[*types.Interface]bool{},
		decls: map[*types.Func]*ast.FuncDecl{}, live: map[*types.Func]bool{}, built: map[*types.Named]bool{},
		called: map[*types.Func]bool{}, waiting: map[*types.Func][]*types.Func{}}
	var starts []func() // the roots and every package initialiser
	for pkg, fs := range files {
		for _, f := range fs {
			for _, d := range f.Decls {
				fd, isFunc := d.(*ast.FuncDecl)
				gd, isGen := d.(*ast.GenDecl)
				switch {
				case isFunc && (fd.Recv != nil || fd.Name.Name != "init"):
					fn := info.Defs[fd.Name].(*types.Func)
					if a.decls[fn] = fd; root(fn) {
						starts = append(starts, func() { a.reach(fn); a.readAll(fn.Signature().Results()) })
					}
				case isFunc || isGen && gd.Tok == token.VAR: // an init func or var initialisers
					starts = append(starts, func() { a.walk(d, pkg) })
				}
			}
		}
	}
	// A method can be called through an interface literal, a shape the
	// errors package asserts in bodies export data lacks, or a named
	// interface of any loaded package, std included. build consults them
	// all, so each is indexed before the walk starts.
	for _, tv := range info.Types {
		if tv.IsType() {
			a.index(tv.Type)
		}
	}
	for _, src := range []string{"interface{ Unwrap() error }", "interface{ Unwrap() []error }", "interface{ Is(error) bool }", "interface{ As(any) bool }"} {
		tv, _ := types.Eval(token.NewFileSet(), nil, token.NoPos, src)
		a.index(tv.Type)
	}
	seen := map[*types.Package]bool{}
	var load func(*types.Package)
	load = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				a.index(tn.Type())
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && files[p] != nil && !tn.IsAlias() {
					a.ours[it] = true
				}
			}
		}
		for _, q := range p.Imports() {
			load(q)
		}
	}
	for p := range files {
		load(p)
	}
	for _, start := range starts {
		start()
	}

	out := a.findings(judged)
	for fn, d := range a.decls {
		if judged(fn.Pkg()) && !a.live[fn] {
			out["unreached "+qualifiedName(fn)] = d.Name.Pos()
		}
	}
	return out
}

// rta is the walk's state: the live funcs, the types live code builds or
// names, and the methods of this tree's interfaces that live code selects.
type rta struct {
	*fieldRules
	ifaces  map[string][]*types.Interface // by method name
	ours    map[*types.Interface]bool     // declared by a named type of the tree
	decls   map[*types.Func]*ast.FuncDecl
	live    map[*types.Func]bool
	built   map[*types.Named]bool
	called  map[*types.Func]bool          // interface methods live code selects
	waiting map[*types.Func][]*types.Func // built methods, by the uncalled one of ours they satisfy
}

func (a *rta) index(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok && it.IsMethodSet() {
		for i := 0; i < it.NumMethods(); i++ {
			a.ifaces[it.Method(i).Name()] = append(a.ifaces[it.Method(i).Name()], it)
		}
	}
}

func (a *rta) reach(fn *types.Func) {
	if d := a.decls[fn]; d != nil && !a.live[fn] {
		a.live[fn] = true
		a.walk(d, fn.Pkg())
	}
}

// build marks t's named type built and reaches each of its methods,
// promoted ones included, that satisfies some interface: at once for a
// std interface or an interface literal, and for one of the tree's own
// interfaces once live code selects that interface method.
func (a *rta) build(t types.Type) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || a.built[n.Origin()] || a.files[n.Obj().Pkg()] == nil {
		return
	}
	a.built[n.Origin()] = true
	ptr := types.NewPointer(n)
	ms := types.NewMethodSet(ptr)
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i).Obj().(*types.Func).Origin()
		for _, it := range a.ifaces[m.Name()] {
			if !types.Implements(ptr, it) {
				continue
			}
			if im := method(it, m.Name()); !a.ours[it] || a.called[im] {
				a.reach(m)
			} else {
				a.waiting[im] = append(a.waiting[im], m)
			}
		}
	}
}

// call records that live code selects the interface method im, and
// reaches every built method that was waiting on it.
func (a *rta) call(im *types.Func) {
	if !a.called[im] {
		a.called[im] = true
		for _, m := range a.waiting[im] {
			a.reach(m)
		}
		delete(a.waiting, im)
	}
}

func method(it *types.Interface, name string) *types.Func {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return it.Method(i).Origin()
		}
	}
	return nil
}

// walk visits one live declaration: it reaches each func the code names,
// builds each type the code names or handles values of, and hands every
// node to the field rules.
func (a *rta) walk(node ast.Node, pkg *types.Package) {
	fields := a.visitor(pkg)
	ast.Inspect(node, func(n ast.Node) bool {
		id, _ := n.(*ast.Ident)
		if fn, ok := a.info.Uses[id].(*types.Func); ok {
			if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
				a.call(fn.Origin())
			}
			a.reach(fn.Origin())
		}
		if e, ok := n.(ast.Expr); ok && a.info.TypeOf(e) != nil {
			a.build(a.info.TypeOf(e))
		}
		fields(n)
		return true
	})
}

// qualifiedName renders fn as pkg.Name or pkg.Recv.Name.
func qualifiedName(fn *types.Func) string {
	if recv := fn.Signature().Recv(); recv != nil {
		return strings.TrimPrefix(types.TypeString(recv.Type(), (*types.Package).Name), "*") + "." + fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}
