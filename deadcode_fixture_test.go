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

type namer interface {
	Name() string
	Kind() string // nothing calls it
}

type shown struct{ label, unused string } // unused is written, never read

func (s shown) Name() string { return s.label }
func (s shown) Kind() string { return "shown" }

type ghost struct{} // satisfies namer, but nothing builds one

func (ghost) Name() string { return "ghost" }
func (ghost) Kind() string { return "ghost" }

type Options struct{ Size, Unset int } // no caller sets Unset

type Reply struct{ Note string } // wire format: its values reach emit

type Row struct{ Cell int } // wire format: appended to a []any for emit

type Counter struct{ Hits, Bumps int } // Bumps is written, never read

type Stats struct{ Calls int } // only the seam's test reads it

func emit(v any) {}

func Main() {
	var n namer = shown{label: "x", unused: "y"}
	emit(Reply{})
	emit(append([]any{}, Row{}))
	emit(n.Name())
	emit(open(Options{Size: 1}))
	c := Counter{Hits: 1}
	c.Bumps++
	emit(c.Hits)
}

func Seam() Stats { return Stats{Calls: 1} } // a root, as an allowlisted seam is

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
	root := func(fn *types.Func) bool { return fn.Name() == "Main" || fn.Name() == "Seam" }
	all := func(*types.Package) bool { return true }
	got := slices.Sorted(maps.Keys(deadSurface(info, map[*types.Package][]*ast.File{pkg: {f}}, root, all)))
	want := []string{"unreached p.dead1", "unreached p.dead2", "unreached p.dead3", "unreached p.ghost.Kind", "unreached p.ghost.Name",
		"unreached p.shown.Kind", "unread p.Counter.Bumps", "unread p.shown.unused", "unset p.Options.Unset"}
	if !slices.Equal(got, want) {
		t.Errorf("findings:\n\t%s\nwant:\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}
