package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RetainedPut enforces the consume-before-return write contract of the
// store dialect (stated on store.Keyed): a Put, PutMany or PutBatch
// implementation must consume caller-provided slices before returning —
// copy them or write them out — never retain them. Callers recycle the
// backing buffer the moment the call returns (the transport server's
// pooled receive frame, the broker's upload arena), which turns a
// retained alias from a memory leak into silent corruption. The check is
// a forward taint walk over the method body — parameters whose types
// carry slices start tainted; assignments, range variables, field
// selections, slice expressions, and composite literals propagate taint;
// copies (fresh make/copy, byte-append into an untainted slice, string
// conversion) clear it. Storing a tainted value into anything that
// outlives the call — a receiver field, another parameter's pointee, or a
// package variable — is a violation.
var RetainedPut = &Analyzer{
	Name: "retainedput",
	Doc:  "flags Put/PutMany/PutBatch implementations that store a caller slice without copying",
	Run:  runRetainedPut,
}

var putMethodNames = map[string]bool{
	"Put":      true,
	"PutMany":  true,
	"PutBatch": true,
}

func runRetainedPut(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		if pass.isTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !putMethodNames[fd.Name.Name] {
				continue
			}
			checkPutMethod(pass, fd)
		}
	}
	return nil
}

func checkPutMethod(pass *Pass, fd *ast.FuncDecl) {
	tw := &taintWalker{
		pass:    pass,
		name:    fd.Name.Name,
		tainted: make(map[types.Object]bool),
		params:  make(map[types.Object]bool),
	}
	if recv := funcRecv(pass.Pkg.Info, fd); recv != nil {
		tw.recv = recv
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.Pkg.Info.Defs[name]
			if obj == nil {
				continue
			}
			tw.params[obj] = true
			if containsSlice(obj.Type()) && !isContextType(obj.Type()) {
				tw.tainted[obj] = true
			}
		}
	}
	tw.block(fd.Body)
}

type taintWalker struct {
	pass    *Pass
	name    string
	recv    types.Object
	params  map[types.Object]bool
	tainted map[types.Object]bool
}

func (tw *taintWalker) block(b *ast.BlockStmt) {
	for _, s := range b.List {
		tw.stmt(s)
	}
}

func (tw *taintWalker) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		tw.assign(x)
	case *ast.RangeStmt:
		tw.rangeStmt(x)
	case *ast.BlockStmt:
		tw.block(x)
	case *ast.IfStmt:
		if x.Init != nil {
			tw.stmt(x.Init)
		}
		tw.block(x.Body)
		if x.Else != nil {
			tw.stmt(x.Else)
		}
	case *ast.ForStmt:
		if x.Init != nil {
			tw.stmt(x.Init)
		}
		tw.block(x.Body)
	case *ast.SwitchStmt:
		if x.Init != nil {
			tw.stmt(x.Init)
		}
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, bs := range cc.Body {
					tw.stmt(bs)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, bs := range cc.Body {
					tw.stmt(bs)
				}
			}
		}
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					tw.stmt(cc.Comm)
				}
				for _, bs := range cc.Body {
					tw.stmt(bs)
				}
			}
		}
	case *ast.LabeledStmt:
		tw.stmt(x.Stmt)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) && tw.taintedExpr(vs.Values[i]) {
						if obj := tw.pass.Pkg.Info.Defs[name]; obj != nil {
							tw.tainted[obj] = true
						}
					}
				}
			}
		}
	case *ast.SendStmt:
		// A send can publish the slice to a long-lived consumer; treat
		// like storing into escaping state only when the value is
		// tainted and the channel is persistent.
		if tw.taintedExpr(x.Value) && tw.persistentLvalue(x.Chan) {
			tw.pass.Reportf(x.Pos(), "%s sends a caller slice on a retained channel without copying; the store contract requires a copy", tw.name)
		}
	}
}

func (tw *taintWalker) rangeStmt(r *ast.RangeStmt) {
	if tw.taintedExpr(r.X) {
		for _, v := range []ast.Expr{r.Key, r.Value} {
			id, ok := v.(*ast.Ident)
			if !ok {
				continue
			}
			obj := tw.pass.Pkg.Info.Defs[id]
			if obj == nil {
				obj = tw.pass.Pkg.Info.Uses[id]
			}
			if obj != nil && containsSlice(obj.Type()) {
				tw.tainted[obj] = true
			}
		}
	}
	tw.block(r.Body)
}

func (tw *taintWalker) assign(a *ast.AssignStmt) {
	for i, lhs := range a.Lhs {
		var rhs ast.Expr
		if len(a.Rhs) == len(a.Lhs) {
			rhs = a.Rhs[i]
		} else if len(a.Rhs) == 1 {
			rhs = a.Rhs[0]
		}
		if rhs == nil || !tw.taintedExpr(rhs) {
			continue
		}
		if tw.persistentLvalue(lhs) {
			tw.pass.Reportf(a.Pos(), "%s stores a caller slice without copying; the store contract requires a copy before returning", tw.name)
			continue
		}
		if id, ok := lhs.(*ast.Ident); ok {
			obj := tw.pass.Pkg.Info.Defs[id]
			if obj == nil {
				obj = tw.pass.Pkg.Info.Uses[id]
			}
			if obj != nil {
				tw.tainted[obj] = true
			}
		}
	}
}

// persistentLvalue reports whether storing into e outlives the call:
// the target is rooted at the receiver, at a (pointer/map/slice)
// parameter, or at a package-level variable.
func (tw *taintWalker) persistentLvalue(e ast.Expr) bool {
	root := rootIdent(e)
	if root == nil {
		return false
	}
	obj := tw.pass.Pkg.Info.Uses[root]
	if obj == nil {
		obj = tw.pass.Pkg.Info.Defs[root]
	}
	if obj == nil {
		return false
	}
	if obj == tw.recv {
		// Bare `s = ...` rebinding a value receiver is local; anything
		// deeper (s.field, s.m[k]) persists.
		_, isIdent := e.(*ast.Ident)
		return !isIdent
	}
	if tw.params[obj] {
		// Storing through a parameter (p.field, m[k]) escapes to the
		// caller's structure; rebinding the parameter itself does not.
		_, isIdent := e.(*ast.Ident)
		return !isIdent
	}
	if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return true
	}
	return false
}

// taintedExpr reports whether evaluating e can yield memory aliased
// with a tainted value.
func (tw *taintWalker) taintedExpr(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		obj := tw.pass.Pkg.Info.Uses[x]
		if obj == nil {
			obj = tw.pass.Pkg.Info.Defs[x]
		}
		return obj != nil && tw.tainted[obj]
	case *ast.ParenExpr:
		return tw.taintedExpr(x.X)
	case *ast.SelectorExpr:
		// it.Data aliases it; but only if the selected value itself
		// carries a slice.
		if tv, ok := tw.pass.Pkg.Info.Types[x]; ok && !containsSlice(tv.Type) {
			return false
		}
		return tw.taintedExpr(x.X)
	case *ast.IndexExpr:
		return tw.taintedExpr(x.X)
	case *ast.SliceExpr:
		return tw.taintedExpr(x.X)
	case *ast.StarExpr:
		return tw.taintedExpr(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return tw.taintedExpr(x.X)
		}
		return false
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if tw.taintedExpr(kv.Value) {
					return true
				}
				continue
			}
			if tw.taintedExpr(elt) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		return tw.taintedCall(x)
	}
	return false
}

// taintedCall decides whether a call result aliases tainted memory.
// make, copy, string conversions, and byte-level appends produce fresh
// memory; slice-to-slice conversions and appends whose element type
// itself carries slices do not.
func (tw *taintWalker) taintedCall(call *ast.CallExpr) bool {
	// Conversion? T(x) aliases x when both sides carry slices.
	if tv, ok := tw.pass.Pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			if !containsSlice(tv.Type) {
				return false // e.g. string(data): copies
			}
			return tw.taintedExpr(call.Args[0])
		}
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "make", "new", "len", "cap", "copy", "min", "max":
			if tw.pass.Pkg.Info.Uses[id] == types.Universe.Lookup(id.Name) {
				return false
			}
		case "append":
			if tw.pass.Pkg.Info.Uses[id] == types.Universe.Lookup("append") {
				return tw.taintedAppend(call)
			}
		}
	}
	// Unknown call: results are assumed fresh. A helper that launders a
	// retained slice through a return value defeats this, but flagging
	// every call would drown the signal.
	return false
}

func (tw *taintWalker) taintedAppend(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	// The result aliases the first argument's backing array.
	if tw.taintedExpr(call.Args[0]) {
		return true
	}
	tv, ok := tw.pass.Pkg.Info.Types[call.Args[0]]
	if !ok {
		return false
	}
	slice, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	elemAliases := containsSlice(slice.Elem())
	for _, arg := range call.Args[1:] {
		if elemAliases && tw.taintedExpr(arg) {
			// Appending elements that themselves carry slices (e.g.
			// []KV) copies the headers, not the backing arrays.
			return true
		}
	}
	return false
}
