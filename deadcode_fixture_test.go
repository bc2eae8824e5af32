package osdc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"strings"
	"testing"
)

// deadFixture plants one case per rule of the dead-surface gate, beside
// the live code that must not be flagged, so the gate cannot go green by
// rotting into an analysis that finds nothing.
const deadFixture = `package p

type namer interface{ Name() string }

type shown struct{ label, unused string } // unused is written, never read

func (s shown) Name() string { return s.label }

type ghost struct{} // satisfies namer, but nothing builds one

func (ghost) Name() string { return "ghost" }

type Options struct{ Size, Unset int } // no caller sets Unset

type Reply struct{ Note string } // wire format: its values reach emit

func emit(v any) {}

func Main() {
	var n namer = shown{label: "x", unused: "y"}
	emit(Reply{})
	emit(n.Name())
	emit(open(Options{Size: 1}))
}

func open(o Options) int {
	if o.Unset == 0 {
		o.Unset = 4 // the package's own default is no write
	}
	return o.Size + o.Unset
}

func dead1() { dead2() } // a chain of dead callers, closed into a cycle
func dead2() { dead3() }
func dead3() { dead1() }
`

func TestDeadSurfaceFlagsEachRule(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", deadFixture, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	pkg, err := new(types.Config).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	root := func(fn *types.Func) bool { return fn.Name() == "Main" }
	all := func(*types.Package) bool { return true }
	got := slices.Sorted(maps.Keys(deadSurface(info, map[*types.Package][]*ast.File{pkg: {f}}, root, all)))
	want := []string{"unreached p.dead1", "unreached p.dead2", "unreached p.dead3", "unreached p.ghost.Name", "unread p.shown.unused", "unset p.Options.Unset"}
	if !slices.Equal(got, want) {
		t.Errorf("findings:\n\t%s\nwant:\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}
