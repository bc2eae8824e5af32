package osdc_test

// The docs gate: every name the design docs put in backticks as code must
// still name something in the tree, so a deletion cannot leave the docs
// describing code that is gone.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docsWithNames are the documents held to the tree's names.
var docsWithNames = []string{"DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	testName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z_]\w*`)
	qualName = regexp.MustCompile(`\b([a-z]\w*)\.([A-Z]\w*)(?:\.(\w+))?`)
	cmdPath  = regexp.MustCompile(`(?:^|[^\w/])(cmd/[\w.-]+(?:/[\w.-]+)*)`)
)

// TestDocsReferToLiveNames resolves, in every code span of the docs, each
// test, fuzz, benchmark or example function name, each pkg.Name or
// pkg.Name.Member of an internal package, and each cmd/ path. A name
// resolves if the package's source or test files declare it; a member is
// a field or method of Name, or a method its test files declare on it.
func TestDocsReferToLiveNames(t *testing.T) {
	tree := loadTree(t)
	internal := map[string][]*types.Package{} // by package name
	for path, p := range tree.checked {
		if strings.HasPrefix(path, "osdc/internal/") {
			internal[p.Name()] = append(internal[p.Name()], p)
		}
	}
	// What test files declare: funcs and types by package, and methods
	// by receiver type.
	testFuncs := map[string]bool{}
	testDecls := map[string]bool{} // "pkg.Name" and "pkg.Recv.Method"
	fset := token.NewFileSet()
	for _, p := range tree.pkgs {
		for _, name := range append(append([]string(nil), p.TestGoFiles...), p.XTestGoFiles...) {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			pkg := strings.TrimSuffix(f.Name.Name, "_test")
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						testFuncs[d.Name.Name] = true
						testDecls[pkg+"."+d.Name.Name] = true
					} else {
						testDecls[pkg+"."+recvName(d.Recv.List[0].Type)+"."+d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							testDecls[pkg+"."+ts.Name.Name] = true
						}
					}
				}
			}
		}
	}
	resolves := func(pkg, name, member string) bool {
		if testDecls[pkg+"."+name] && member == "" || testDecls[pkg+"."+name+"."+member] {
			return true
		}
		for _, p := range internal[pkg] {
			obj := p.Scope().Lookup(name)
			if obj == nil {
				continue
			}
			if member == "" {
				return true
			}
			if _, ok := obj.(*types.TypeName); ok {
				if m, _, _ := types.LookupFieldOrMethod(obj.Type(), true, p, member); m != nil {
					return true
				}
			}
		}
		return false
	}

	for _, doc := range docsWithNames {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, span := range codeSpan.FindAllString(line, -1) {
				var dead []string
				for _, name := range testName.FindAllString(span, -1) {
					if !testFuncs[name] {
						dead = append(dead, name)
					}
				}
				for _, m := range qualName.FindAllStringSubmatch(span, -1) {
					if internal[m[1]] != nil && !resolves(m[1], m[2], m[3]) {
						dead = append(dead, m[0])
					}
				}
				for _, m := range cmdPath.FindAllStringSubmatch(span, -1) {
					if _, err := os.Stat(strings.TrimRight(m[1], ".")); err != nil {
						dead = append(dead, m[1])
					}
				}
				for _, name := range dead {
					t.Errorf("%s:%d: %s names %s, which the tree does not declare", doc, i+1, span, name)
				}
			}
		}
	}
}

// recvName is a method receiver's type name, pointer and type parameters
// stripped.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
