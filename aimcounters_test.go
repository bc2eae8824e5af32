package osdc_test

// The aims' ratchet. Each rule counts one kind of site across the root
// module (bench/ is its own module) and pins the count: a new site fails
// and is named by file:line, and a site fixed without lowering the
// baseline fails too, so the gain is locked in by the same change. A floor
// works the other way round. The table is ROADMAP's scoreboard.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

type aimRule struct {
	name     string
	inTests  bool     // count _test.go files, not product files
	floor    bool     // the count may only rise
	pkgs     []string // count only these packages under internal/; nil is all
	baseline int
	match    func(n ast.Node, imports map[string]string) bool
}

var aimRules = []aimRule{
	// Every listener is a wire.Server: one set of timeouts, body bounds
	// and drain.
	{name: "bare http.ListenAndServe/Serve", baseline: 0, match: func(n ast.Node, imp map[string]string) bool {
		return isCall(n, imp, "net/http", "ListenAndServe", "ListenAndServeTLS", "Serve", "ServeTLS")
	}},
	{name: "product file imports net/http/httptest", baseline: 0, match: func(n ast.Node, _ map[string]string) bool {
		spec, ok := n.(*ast.ImportSpec)
		return ok && spec.Path.Value == `"net/http/httptest"`
	}},
	// The native dialects are written and read without reflection; only
	// the EC2 codec's oracle test still holds encoding/xml.
	{name: "product file imports encoding/xml", baseline: 0, match: func(n ast.Node, _ map[string]string) bool {
		spec, ok := n.(*ast.ImportSpec)
		return ok && spec.Path.Value == `"encoding/xml"`
	}},
	{name: "&http.Client{…} literal", baseline: 1, match: func(n ast.Node, imp map[string]string) bool {
		u, ok := n.(*ast.UnaryExpr)
		if !ok || u.Op != token.AND {
			return false
		}
		lit, ok := u.X.(*ast.CompositeLit)
		return ok && isRef(lit.Type, imp, "net/http", "Client")
	}},
	{name: "unbounded io.ReadAll", baseline: 0, match: func(n ast.Node, imp map[string]string) bool {
		if !isCall(n, imp, "io", "ReadAll") {
			return false
		}
		arg := n.(*ast.CallExpr).Args[0]
		return !isCall(arg, imp, "io", "LimitReader") && !isCall(arg, imp, "net/http", "MaxBytesReader")
	}},
	{name: "log.Print*/Fatal*", baseline: 1, match: func(n ast.Node, imp map[string]string) bool {
		return isCall(n, imp, "log", "Print", "Printf", "Println", "Fatal", "Fatalf", "Fatalln")
	}},
	{name: "time.Sleep in tests", inTests: true, baseline: 16, match: func(n ast.Node, imp map[string]string) bool {
		return isCall(n, imp, "time", "Sleep")
	}},
	{name: "http.DefaultClient", baseline: 0, match: func(n ast.Node, imp map[string]string) bool {
		return isRef(n, imp, "net/http", "DefaultClient")
	}},
	// Each kind of HTTP caller has one edge that builds its requests:
	// wire.Call for the JSON planes, the native dialects' own helpers, the
	// balancer's proxy, the /metrics scrapers and the console client.
	{name: "hand-built HTTP request", baseline: 6, match: func(n ast.Node, imp map[string]string) bool {
		return isCall(n, imp, "net/http", "NewRequest", "NewRequestWithContext", "Get", "Post", "Head", "PostForm")
	}},
	// A call a caller may give up on takes the caller's context; a root
	// belongs to main, a stop-owning loop or a constructor with no caller
	// to ask (ROADMAP F).
	{name: "context.Background() in product code", baseline: 12, match: func(n ast.Node, imp map[string]string) bool {
		return isCall(n, imp, "context", "Background")
	}},
	{name: "files importing context", floor: true, baseline: 22, match: func(n ast.Node, _ map[string]string) bool {
		spec, ok := n.(*ast.ImportSpec)
		return ok && spec.Path.Value == `"context"`
	}},
	// A job on wall time runs on fanout.Every; sim's wallTicks feeds the
	// clock sources.
	{name: "wall ticker or timer (time.NewTicker/Tick/After)", baseline: 2, match: func(n ast.Node, imp map[string]string) bool {
		return isCall(n, imp, "time", "NewTicker", "Tick", "After")
	}},
	// The deterministic surface runs on virtual time; sim's wallTicks is its
	// one bridge to the wall clock.
	{name: "wall clock on the deterministic surface", baseline: 1,
		pkgs: []string{"sim", "transport", "udt", "tcpmodel", "simnet", "simdisk", "workload", "scenario"},
		match: func(n ast.Node, imp map[string]string) bool {
			return isCall(n, imp, "time", "Now", "Since", "Until")
		}},
}

func TestAimCounters(t *testing.T) {
	tree := loadTree(t)
	var product, tests []*ast.File
	pkgOf := map[*ast.File]string{}
	for _, p := range tree.pkgs {
		if p.Module == nil || p.Module.Path != "osdc" {
			continue
		}
		pkg := strings.TrimPrefix(p.ImportPath, "osdc/internal/")
		product = append(product, p.files...)
		for _, f := range p.files {
			pkgOf[f] = pkg
		}
		for _, name := range append(append([]string(nil), p.TestGoFiles...), p.XTestGoFiles...) {
			f, err := parser.ParseFile(tree.fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			tests = append(tests, f)
			pkgOf[f] = pkg
		}
	}
	for _, rule := range aimRules {
		files := product
		if rule.inTests {
			files = tests
		}
		var sites []string
		for _, f := range files {
			if rule.pkgs != nil && !slices.Contains(rule.pkgs, pkgOf[f]) {
				continue
			}
			imports := importNames(f)
			ast.Inspect(f, func(n ast.Node) bool {
				if n != nil && rule.match(n, imports) {
					pos := tree.fset.Position(n.Pos())
					sites = append(sites, fmt.Sprintf("%s:%d", relPath(pos.Filename), pos.Line))
				}
				return true
			})
		}
		got, want := len(sites), rule.baseline
		var verdict string
		switch {
		case got == want:
			continue
		case got > want && !rule.floor:
			verdict = "new sites may not be added; remove them"
		case got < want && rule.floor:
			verdict = "it fell below its floor"
		case rule.floor:
			verdict = "raise the floor in aimRules to lock the gain in"
		default:
			verdict = "lower the baseline in aimRules to lock the gain in"
		}
		t.Errorf("%s: %d sites, baseline %d: %s\n\t%s", rule.name, got, want, verdict, strings.Join(sites, "\n\t"))
	}
}

// importNames maps each name a file imports a package under to its path.
func importNames(f *ast.File) map[string]string {
	names := map[string]string{}
	for _, spec := range f.Imports {
		path, _ := strconv.Unquote(spec.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if spec.Name != nil {
			name = spec.Name.Name
		}
		names[name] = path
	}
	return names
}

// isRef reports whether e is pkg.Name for one of the given names, pkg
// being how the file imports path.
func isRef(e ast.Node, imports map[string]string, path string, names ...string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok || imports[x.Name] != path {
		return false
	}
	for _, name := range names {
		if sel.Sel.Name == name {
			return true
		}
	}
	return false
}

// isCall reports whether n calls pkg.Name for one of the given names.
func isCall(n ast.Node, imports map[string]string, path string, names ...string) bool {
	call, ok := n.(*ast.CallExpr)
	return ok && isRef(call.Fun, imports, path, names...)
}
