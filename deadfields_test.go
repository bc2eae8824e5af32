package osdc_test

// The dead-surface gate's two field rules, recorded over the live code the
// reachability walk visits (deadcode_test.go): every field is read, and
// every exported field is written. A field selection is a read unless it
// is assigned, incremented or a composite literal's key; &x.F and x.F.M()
// on a pointer receiver are both. The fields of a root's results are read
// (readAll). A struct whose values fill an empty-interface slot (an
// encoder's argument, an `any` map element, a value appended to a []any)
// is wire format: encoding/json reads and writes its fields by name, so
// neither rule judges them.

import (
	"go/ast"
	"go/token"
	"go/types"
)

type fieldRules struct {
	info          *types.Info
	files         map[*types.Package][]*ast.File
	wire          map[types.Type]bool
	read, written map[*types.Var]bool
}

func newFieldRules(info *types.Info, files map[*types.Package][]*ast.File) *fieldRules {
	return &fieldRules{info: info, files: files, wire: map[types.Type]bool{}, read: map[*types.Var]bool{}, written: map[*types.Var]bool{}}
}

// visitor returns the node visitor for one live declaration of pkg.
func (r *fieldRules) visitor(pkg *types.Package) func(ast.Node) {
	role := map[*ast.Ident]string{} // "write" or "default"; absent is a read
	return func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				if id := selOf(l); role[id] == "" {
					role[id] = "write"
				}
				if len(n.Lhs) == len(n.Rhs) {
					r.toAny(r.info.TypeOf(l), n.Rhs[i])
				}
			}
		case *ast.IncDecStmt:
			role[selOf(n.X)] = "write"
		case *ast.IfStmt:
			r.defaults(n, role)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				r.write(selOf(n.X))
			}
		case *ast.SelectorExpr:
			if m, ok := r.info.Uses[n.Sel].(*types.Func); ok && m.Signature().Recv() != nil {
				if _, ptr := m.Signature().Recv().Type().(*types.Pointer); ptr {
					r.write(selOf(n.X))
				}
			}
		case *ast.CompositeLit:
			r.literal(n, role)
		case *ast.CallExpr:
			if sig, ok := r.info.TypeOf(n.Fun).Underlying().(*types.Signature); ok && r.encoder(n.Fun) {
				for i, arg := range n.Args {
					r.toAny(paramType(sig, i), arg)
				}
			}
		case *ast.Ident:
			f, ok := r.info.Uses[n].(*types.Var)
			if !ok || !f.IsField() {
				return
			}
			if f = f.Origin(); role[n] == "" {
				r.read[f] = true
			} else if role[n] == "write" || f.Pkg() != pkg {
				r.written[f] = true
			}
		}
	}
}

// encoder reports whether fun is a function of encoding/json or the tree,
// whose interface{} parameters are its encode helpers', or append, which
// can collect values for an encoder in a []any. A std function such as
// sort.Slice also takes any, but reads no field.
func (r *fieldRules) encoder(fun ast.Expr) bool {
	id, _ := ast.Unparen(fun).(*ast.Ident)
	if sel := selOf(fun); sel != nil {
		id = sel
	}
	if b, ok := r.info.Uses[id].(*types.Builtin); ok {
		return b.Name() == "append"
	}
	fn, ok := r.info.Uses[id].(*types.Func)
	return ok && fn.Pkg() != nil && (r.files[fn.Pkg()] != nil || fn.Pkg().Path() == "encoding/json")
}

func (r *fieldRules) write(id *ast.Ident) {
	if f, ok := r.info.Uses[id].(*types.Var); ok {
		r.written[f.Origin()] = true
	}
}

// defaults marks the writes of an `if x.F == c { x.F = … }` body (or <=,
// <; c a constant or nil) as the package filling in its own default.
func (r *fieldRules) defaults(n *ast.IfStmt, role map[*ast.Ident]string) {
	b, ok := n.Cond.(*ast.BinaryExpr)
	if !ok || b.Op != token.EQL && b.Op != token.LEQ && b.Op != token.LSS {
		return
	}
	f, bound := r.info.Uses[selOf(b.X)], r.info.Types[b.Y]
	for _, s := range n.Body.List {
		if as, ok := s.(*ast.AssignStmt); ok && f != nil && (bound.Value != nil || bound.IsNil()) {
			for _, l := range as.Lhs {
				if id := selOf(l); r.info.Uses[id] == f {
					role[id] = "default"
				}
			}
		}
	}
}

// literal records a composite literal's fields as written (its keys are
// not reads) and passes each element to toAny with the slot it fills.
func (r *fieldRules) literal(n *ast.CompositeLit, role map[*ast.Ident]string) {
	t := r.info.TypeOf(n)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for i, e := range n.Elts {
		kv, keyed := e.(*ast.KeyValueExpr)
		if keyed {
			e = kv.Value
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			f := u.Field(i)
			if keyed {
				f, role[kv.Key.(*ast.Ident)] = r.info.Uses[kv.Key.(*ast.Ident)].(*types.Var), "write"
			} else {
				r.written[f.Origin()] = true
			}
			r.toAny(f.Type(), e)
		case *types.Map:
			r.toAny(u.Elem(), e)
		case interface{ Elem() types.Type }: // slice or array
			r.toAny(u.Elem(), e)
		}
	}
}

// toAny marks the type of e's value, and every type its values carry, as
// wire format when e fills an empty-interface slot.
func (r *fieldRules) toAny(slot types.Type, e ast.Expr) {
	if slot == nil {
		return
	}
	if it, ok := slot.Underlying().(*types.Interface); ok && it.Empty() {
		r.markWire(r.info.TypeOf(e))
	}
}

func (r *fieldRules) markWire(t types.Type) {
	if t != nil && !r.wire[t] {
		r.wire[t] = true
		carried(t, r.markWire)
	}
}

// readAll marks every field of a root's results, and of the values they
// carry, as read: the test that needs the seam reads them.
func (r *fieldRules) readAll(results *types.Tuple) {
	seen := map[types.Type]bool{}
	var read func(types.Type)
	read = func(t types.Type) {
		if !seen[t] {
			seen[t] = true
			if st, ok := t.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					r.read[st.Field(i).Origin()] = true
				}
			}
			carried(t, read)
		}
	}
	for i := 0; i < results.Len(); i++ {
		read(results.At(i).Type())
	}
}

// carried calls visit with each type whose values a value of t holds: a
// struct's fields, a map's key and element, a container's element.
func carried(t types.Type, visit func(types.Type)) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			visit(u.Field(i).Type())
		}
	case *types.Map:
		visit(u.Key())
		visit(u.Elem())
	case interface{ Elem() types.Type }: // pointer, slice, array, chan
		visit(u.Elem())
	}
}

// findings maps "unread name" to each field of the judged packages that
// no live code reads, and "unset name" to each exported field that live
// code reads but never writes.
func (r *fieldRules) findings(judged func(*types.Package) bool) map[string]token.Pos {
	out := map[string]token.Pos{}
	for pkg := range r.files {
		for _, name := range pkg.Scope().Names() {
			tn, _ := pkg.Scope().Lookup(name).(*types.TypeName)
			if tn == nil || tn.IsAlias() || !judged(pkg) || r.wire[tn.Type()] {
				continue
			}
			st, _ := tn.Type().Underlying().(*types.Struct)
			for i := 0; st != nil && i < st.NumFields(); i++ {
				f, kind := st.Field(i), ""
				switch {
				case f.Embedded() || f.Name() == "_":
				case !r.read[f]:
					kind = "unread"
				case f.Exported() && !r.written[f]:
					kind = "unset"
				}
				if kind != "" {
					out[kind+" "+pkg.Name()+"."+name+"."+f.Name()] = f.Pos()
				}
			}
		}
	}
	return out
}

func paramType(sig *types.Signature, i int) types.Type {
	ps := sig.Params()
	if sig.Variadic() && i >= ps.Len()-1 {
		last := ps.At(ps.Len() - 1).Type()
		if s, ok := last.(*types.Slice); ok {
			return s.Elem()
		}
		return last // append([]byte, string...) takes the string whole
	} else if i < ps.Len() {
		return ps.At(i).Type()
	}
	return nil
}

func selOf(e ast.Expr) *ast.Ident {
	if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		return s.Sel
	}
	return nil
}
