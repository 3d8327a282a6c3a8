package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RetainedPut enforces the consume-before-return write contract of the
// store dialect (stated on store.Keyed): a Put, PutMany, PutBatch or
// XorPutMany implementation must consume caller-provided slices before
// returning —
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
//
// The same walk checks the read contract's mirror image: the blocks a
// store.Keyed ReadBatch lends its callback live in a pooled arena that
// the next read overwrites, so they are valid only until the callback
// returns. The [][]byte parameter of every function literal passed to a
// ReadBatch call starts tainted, and storing it or any sub-slice into
// anything declared outside the literal (a free variable of the
// enclosing function, a package variable), into a field, or sending it
// on any channel is a violation; the same copies clear the taint.
var RetainedPut = &Analyzer{
	Name: "retainedput",
	Doc:  "flags Put/PutMany/PutBatch/XorPutMany implementations that store a caller slice, and ReadBatch callbacks that keep a borrowed block, without copying",
	Run:  runRetainedPut,
}

var putMethodNames = map[string]bool{
	"Put":        true,
	"PutMany":    true,
	"PutBatch":   true,
	"XorPutMany": true,
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
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if lit := readBatchCallback(call); lit != nil {
					checkReadCallback(pass, lit)
				}
			}
			return true
		})
	}
	return nil
}

func checkPutMethod(pass *Pass, fd *ast.FuncDecl) {
	tw := &taintWalker{
		pass:     pass,
		tainted:  make(map[types.Object]bool),
		params:   make(map[types.Object]bool),
		storeMsg: fd.Name.Name + " stores a caller slice without copying; the store contract requires a copy before returning",
		sendMsg:  fd.Name.Name + " sends a caller slice on a retained channel without copying; the store contract requires a copy",
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

// readBatchCallback returns the function literal passed as the callback
// of a ReadBatch call, or nil.
func readBatchCallback(call *ast.CallExpr) *ast.FuncLit {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "ReadBatch" || len(call.Args) == 0 {
		return nil
	}
	lit, _ := call.Args[len(call.Args)-1].(*ast.FuncLit)
	return lit
}

// checkReadCallback walks a ReadBatch callback with its [][]byte
// parameter tainted: the blocks it lends.
func checkReadCallback(pass *Pass, lit *ast.FuncLit) {
	const why = "it is valid only until the callback returns"
	tw := &taintWalker{
		pass:     pass,
		tainted:  make(map[types.Object]bool),
		lit:      lit,
		storeMsg: "ReadBatch callback stores a borrowed block without copying; " + why,
		sendMsg:  "ReadBatch callback sends a borrowed block on a channel without copying; " + why,
	}
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if obj := pass.Pkg.Info.Defs[name]; obj != nil && types.Identical(obj.Type(), lentBlocks) {
				tw.tainted[obj] = true
			}
		}
	}
	tw.block(lit.Body)
}

// lentBlocks is the type of the blocks a ReadBatch callback borrows.
var lentBlocks = types.NewSlice(types.NewSlice(types.Typ[types.Byte]))

// taintWalker follows tainted memory through one body: a Put method's
// (recv and params set) or a ReadBatch callback's (lit set).
type taintWalker struct {
	pass              *Pass
	recv              types.Object
	params            map[types.Object]bool
	lit               *ast.FuncLit
	tainted           map[types.Object]bool
	storeMsg, sendMsg string
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
		// tainted and the channel is persistent. A borrowed block sent
		// anywhere reaches a goroutine that may read it after the loan.
		if tw.taintedExpr(x.Value) && (tw.lit != nil || tw.persistentLvalue(x.Chan)) {
			tw.pass.Reportf(x.Pos(), "%s", tw.sendMsg)
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
			tw.pass.Reportf(a.Pos(), "%s", tw.storeMsg)
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
// parameter, or at a package-level variable. In a ReadBatch callback it
// is anything declared outside the literal, or any field.
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
	if tw.lit != nil {
		inside := obj.Pos() >= tw.lit.Pos() && obj.Pos() < tw.lit.End()
		return !inside || tw.selectsField(e)
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

// selectsField reports whether the lvalue e stores through a struct
// field anywhere along its path.
func (tw *taintWalker) selectsField(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if sel, ok := tw.pass.Pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				return true
			}
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return false
		}
	}
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
