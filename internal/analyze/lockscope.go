package analyze

import (
	"go/ast"
	"go/types"
	"regexp"
	"slices"
	"strings"
)

// LockScope proves the quota-atomicity invariant: state a struct
// declares as lock-guarded is only touched while that lock is held.
// Guarding is declared in field comments:
//
//	total int64      // guarded by mu
//	backing Keyed    // write-guarded by mu
//
// "guarded by" means every use needs the lock (RLock suffices for
// reads, writes need the write lock). A field may name several locks,
// "guarded by amu and mu": it is written holding all of them, so any
// one of them admits a read, and a write needs every one, each as a
// write lock. "write-guarded by" is for
// backing-store handles whose mutating calls (Put*, Del*, Set*) must
// stay atomic with bookkeeping under the lock, while reads may run
// outside it — the tenant registry's charge-then-write protocol.
//
// Methods named *Locked are assumed to run with the receiver's
// annotated locks held; calling one without holding the lock is itself
// a violation. A struct with more than one lock may have *Locked
// methods that need only some: the method's doc comment names them,
// "Callers hold amu" or "Callers hold amu and mu", and the names that
// are locks of the receiver are the ones it runs with and its callers
// must hold. A doc comment that names none means all of them. Finally,
// calling (*os.File).Sync while holding a mutex belonging to a
// DIFFERENT object stalls that object's lock for a disk flush it does
// not own — the fsync-under-foreign-lock rule.
var LockScope = &Analyzer{
	Name: "lockscope",
	Doc:  "flags uses of lock-guarded fields outside the owning mutex, unlocked *Locked calls, and fsync under a foreign lock",
	Run:  runLockScope,
}

// guardRE recognises the annotation as a standalone clause of the field
// comment, so prose can precede ("oldest first; guarded by mu") or
// follow ("write-guarded by mu: must stay atomic with accounting") it.
var guardRE = regexp.MustCompile(`(?:^|;\s*)(write-)?guarded by ([A-Za-z_][A-Za-z0-9_]*(?: and [A-Za-z_][A-Za-z0-9_]*)*)(?:$|[;:.,])`)

// holdRE finds the locks a *Locked method's doc comment names: "Callers
// hold amu", "Callers hold s.mu", "Callers hold amu and mu".
var holdRE = regexp.MustCompile(`Callers\s+hold\s+((?:\w+\.)?\w+(?:\s+and\s+(?:\w+\.)?\w+)*)`)

// guardInfo describes one annotated field.
type guardInfo struct {
	mutexes   []string // sibling mutex field names
	writeOnly bool     // write-guarded: only mutating calls need the lock
}

// lockKey identifies a mutex instance as seen from one function: the
// root variable it hangs off plus the selector path ("mu", "reg.mu").
type lockKey struct {
	root types.Object
	path string
}

type lockMode int

const (
	modeRead lockMode = iota + 1
	modeWrite
)

// mutatingCalls are the write-guarded methods: the calls that must stay
// atomic with the bookkeeping the same lock protects.
var mutatingCalls = map[string]bool{
	"Put": true, "PutMany": true, "PutBatch": true,
	"Del": true, "Delete": true, "Set": true,
}

func runLockScope(pass *Pass) error {
	guards := collectGuards(pass)
	if len(guards.fields) == 0 {
		return nil
	}
	needs := collectNeeds(pass, guards)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lw := &lockWalker{pass: pass, guards: guards, needs: needs}
			held := make(map[lockKey]lockMode)
			// A *Locked method documents "caller holds the lock": seed
			// the locks it needs as held.
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				if recv := funcRecv(pass.Pkg.Info, fd); recv != nil {
					for _, mu := range lw.lockedNeeds(pass.Pkg.Info.Defs[fd.Name], namedOf(recv.Type())) {
						held[lockKey{root: recv, path: mu}] = modeWrite
					}
				}
			}
			lw.stmts(fd.Body.List, held)
		}
	}
	return nil
}

// guardSet is the package's parsed annotations.
type guardSet struct {
	// fields maps an annotated field's object to its guard.
	fields map[types.Object]guardInfo
	// structMutexes maps a named struct's type object to the mutex
	// field names referenced by its annotations.
	structMutexes map[types.Object][]string
}

func (g guardSet) mutexesOf(named *types.Named) []string {
	if named == nil {
		return nil
	}
	return g.structMutexes[named.Obj()]
}

// collectGuards parses "guarded by" comments off struct fields.
func collectGuards(pass *Pass) guardSet {
	g := guardSet{
		fields:        make(map[types.Object]guardInfo),
		structMutexes: make(map[types.Object][]string),
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			typeObj := pass.Pkg.Info.Defs[ts.Name]
			if typeObj == nil {
				return true
			}
			seen := make(map[string]bool)
			for _, field := range st.Fields.List {
				info, ok := fieldGuard(field)
				if !ok {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.Pkg.Info.Defs[name]; obj != nil {
						g.fields[obj] = info
					}
				}
				for _, mu := range info.mutexes {
					if !seen[mu] {
						seen[mu] = true
						g.structMutexes[typeObj] = append(g.structMutexes[typeObj], mu)
					}
				}
			}
			return true
		})
	}
	return g
}

// fieldGuard extracts a guard annotation from a field's trailing or doc
// comment.
func fieldGuard(field *ast.Field) (guardInfo, bool) {
	for _, cg := range []*ast.CommentGroup{field.Comment, field.Doc} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if m := guardRE.FindStringSubmatch(text); m != nil {
				return guardInfo{mutexes: strings.Split(m[2], " and "), writeOnly: m[1] != ""}, true
			}
		}
	}
	return guardInfo{}, false
}

// collectNeeds maps each *Locked method whose doc comment names some of
// its receiver's locks to those locks. A method it leaves out needs all
// of them.
func collectNeeds(pass *Pass, g guardSet) map[types.Object][]string {
	needs := make(map[types.Object][]string)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil || !strings.HasSuffix(fd.Name.Name, "Locked") {
				continue
			}
			recv := funcRecv(pass.Pkg.Info, fd)
			if recv == nil {
				continue
			}
			all := g.mutexesOf(namedOf(recv.Type()))
			var named []string
			for _, m := range holdRE.FindAllStringSubmatch(fd.Doc.Text(), -1) {
				for _, name := range strings.Fields(m[1]) {
					name = name[strings.LastIndex(name, ".")+1:] // "and" is never a lock of the receiver
					if slices.Contains(all, name) && !slices.Contains(named, name) {
						named = append(named, name)
					}
				}
			}
			if obj := pass.Pkg.Info.Defs[fd.Name]; obj != nil && len(named) > 0 {
				needs[obj] = named
			}
		}
	}
	return needs
}

type lockWalker struct {
	pass   *Pass
	guards guardSet
	needs  map[types.Object][]string
}

// lockedNeeds is the locks the *Locked method fn of a receiver of type
// named runs with: those its doc comment names, or all of the
// receiver's.
func (lw *lockWalker) lockedNeeds(fn types.Object, named *types.Named) []string {
	if n, ok := lw.needs[fn]; ok {
		return n
	}
	return lw.guards.mutexesOf(named)
}

// stmts walks a statement list in source order, threading the held-lock
// map through lock and unlock calls.
func (lw *lockWalker) stmts(list []ast.Stmt, held map[lockKey]lockMode) {
	for _, s := range list {
		lw.stmt(s, held)
	}
}

func (lw *lockWalker) stmt(s ast.Stmt, held map[lockKey]lockMode) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		if lw.lockOp(x.X, held) {
			return
		}
		lw.expr(x.X, held, false)
	case *ast.DeferStmt:
		// `defer mu.Unlock()` runs at return: it does not release the
		// lock for the statements that follow, so the held set is
		// unchanged. Other deferred work is checked under the current
		// locks, which is what holds at (normal) exit.
		if isLockCall(lw.pass, x.Call) {
			return
		}
		lw.expr(x.Call, held, false)
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			lw.expr(r, held, false)
		}
		for _, l := range x.Lhs {
			lw.expr(l, held, true)
		}
	case *ast.IncDecStmt:
		lw.expr(x.X, held, true)
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			lw.expr(r, held, false)
		}
	case *ast.IfStmt:
		if x.Init != nil {
			lw.stmt(x.Init, held)
		}
		lw.expr(x.Cond, held, false)
		lw.branch(x.Body.List, bodyTerminates(x.Body.List), elseStmts(x.Else), x.Else != nil && bodyTerminates(elseStmts(x.Else)), held)
	case *ast.BlockStmt:
		inner := copyHeld(held)
		lw.stmts(x.List, inner)
		if !bodyTerminates(x.List) {
			replaceHeld(held, inner)
		}
	case *ast.ForStmt:
		if x.Init != nil {
			lw.stmt(x.Init, held)
		}
		if x.Cond != nil {
			lw.expr(x.Cond, held, false)
		}
		inner := copyHeld(held)
		lw.stmts(x.Body.List, inner)
		if x.Post != nil {
			lw.stmt(x.Post, inner)
		}
		// Loop bodies may run zero times: the parent keeps its view.
	case *ast.RangeStmt:
		lw.expr(x.X, held, false)
		inner := copyHeld(held)
		lw.stmts(x.Body.List, inner)
	case *ast.SwitchStmt:
		if x.Init != nil {
			lw.stmt(x.Init, held)
		}
		if x.Tag != nil {
			lw.expr(x.Tag, held, false)
		}
		lw.clauses(x.Body.List, held)
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			lw.stmt(x.Init, held)
		}
		lw.clauses(x.Body.List, held)
	case *ast.SelectStmt:
		lw.clauses(x.Body.List, held)
	case *ast.GoStmt:
		// The goroutine starts with no locks of ours.
		if fl, ok := x.Call.Fun.(*ast.FuncLit); ok {
			lw.stmts(fl.Body.List, make(map[lockKey]lockMode))
		} else {
			lw.expr(x.Call, held, false)
		}
	case *ast.SendStmt:
		lw.expr(x.Chan, held, false)
		lw.expr(x.Value, held, false)
	case *ast.LabeledStmt:
		lw.stmt(x.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						lw.expr(v, held, false)
					}
				}
			}
		}
	}
}

// branch walks an if/else pair and merges lock state: only paths that
// fall through contribute, and a lock is held afterwards only if every
// surviving path holds it. This is what makes the early-exit unlock
// idiom (`if err != nil { mu.Unlock(); return err }`) analyze cleanly.
func (lw *lockWalker) branch(body []ast.Stmt, bodyTerm bool, els []ast.Stmt, elseTerm bool, held map[lockKey]lockMode) {
	bodyHeld := copyHeld(held)
	lw.stmts(body, bodyHeld)
	elseHeld := copyHeld(held)
	if els != nil {
		lw.stmts(els, elseHeld)
	}
	var survivors []map[lockKey]lockMode
	if !bodyTerm {
		survivors = append(survivors, bodyHeld)
	}
	if els == nil || !elseTerm {
		survivors = append(survivors, elseHeld)
	}
	mergeHeld(held, survivors)
}

// clauses walks switch/select clause bodies, merging like branch.
func (lw *lockWalker) clauses(list []ast.Stmt, held map[lockKey]lockMode) {
	var survivors []map[lockKey]lockMode
	sawDefault := false
	for _, clause := range list {
		var body []ast.Stmt
		switch cc := clause.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				sawDefault = true
			}
			for _, e := range cc.List {
				lw.expr(e, held, false)
			}
			body = cc.Body
		case *ast.CommClause:
			if cc.Comm == nil {
				sawDefault = true
			} else {
				lw.stmt(cc.Comm, held)
			}
			body = cc.Body
		default:
			continue
		}
		inner := copyHeld(held)
		lw.stmts(body, inner)
		if !bodyTerminates(body) {
			survivors = append(survivors, inner)
		}
	}
	if !sawDefault {
		// No default: the switch may match nothing and fall through
		// with the original state.
		survivors = append(survivors, copyHeld(held))
	}
	mergeHeld(held, survivors)
}

// expr checks one expression tree under the current held set. write
// marks the outermost expression as a store target.
func (lw *lockWalker) expr(e ast.Expr, held map[lockKey]lockMode, write bool) {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		lw.checkFieldUse(x, held, write)
		lw.expr(x.X, held, false)
	case *ast.CallExpr:
		lw.checkCall(x, held)
		for _, arg := range x.Args {
			lw.expr(arg, held, false)
		}
		// The callee expression: for sel.Method() the receiver part is
		// a read; checkCall handled the method-level rules.
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			lw.expr(sel.X, held, false)
		} else {
			lw.expr(x.Fun, held, false)
		}
	case *ast.IndexExpr:
		lw.expr(x.X, held, write)
		lw.expr(x.Index, held, false)
	case *ast.SliceExpr:
		lw.expr(x.X, held, false)
	case *ast.StarExpr:
		lw.expr(x.X, held, write)
	case *ast.ParenExpr:
		lw.expr(x.X, held, write)
	case *ast.UnaryExpr:
		lw.expr(x.X, held, false)
	case *ast.BinaryExpr:
		lw.expr(x.X, held, false)
		lw.expr(x.Y, held, false)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			lw.expr(elt, held, false)
		}
	case *ast.KeyValueExpr:
		lw.expr(x.Value, held, false)
	case *ast.TypeAssertExpr:
		lw.expr(x.X, held, false)
	case *ast.FuncLit:
		// Literals not launched via `go` are assumed to run
		// synchronously (callbacks), inheriting the caller's locks.
		lw.stmts(x.Body.List, copyHeld(held))
	}
}

// lockOp updates held for mu.Lock/RLock/Unlock/RUnlock statements and
// reports double lock/unlock; returns true if e was a lock operation.
func (lw *lockWalker) lockOp(e ast.Expr, held map[lockKey]lockMode) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || !isLockCall(lw.pass, call) {
		return false
	}
	sel := call.Fun.(*ast.SelectorExpr)
	root, path, ok := selectorPath(sel.X)
	if !ok {
		return true
	}
	obj := lw.pass.Pkg.Info.Uses[root]
	if obj == nil {
		return true
	}
	key := lockKey{root: obj, path: path}
	switch sel.Sel.Name {
	case "Lock":
		held[key] = modeWrite
	case "RLock":
		held[key] = modeRead
	case "Unlock", "RUnlock":
		delete(held, key)
	}
	return true
}

// isLockCall reports whether call is a Lock-family method on a
// sync.Mutex or sync.RWMutex.
func isLockCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return false
	}
	tv, ok := pass.Pkg.Info.Types[sel.X]
	if !ok {
		return false
	}
	named := namedOf(tv.Type)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// checkFieldUse flags an access to a guarded field without its mutex.
func (lw *lockWalker) checkFieldUse(sel *ast.SelectorExpr, held map[lockKey]lockMode, write bool) {
	selection, ok := lw.pass.Pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	info, guarded := lw.guards.fields[selection.Obj()]
	if !guarded || info.writeOnly {
		return // write-guarded fields are checked at call sites
	}
	name := selection.Obj().Name()
	if !write {
		// A read needs any one of the locks.
		for _, mu := range info.mutexes {
			if key, ok := lw.guardKey(sel.X, mu); !ok || held[key] != 0 {
				return
			}
		}
		lw.pass.Reportf(sel.Pos(), "read of guarded field %s without holding %s", name, strings.Join(info.mutexes, " or "))
		return
	}
	// A write needs every one, as a write lock.
	for _, mu := range info.mutexes {
		key, ok := lw.guardKey(sel.X, mu)
		if !ok || held[key] == modeWrite {
			continue
		}
		need := mu
		if held[key] == modeRead {
			need += " (write lock; only RLock is held)"
		}
		lw.pass.Reportf(sel.Pos(), "write to guarded field %s without holding %s", name, need)
	}
}

// checkCall enforces the call-level rules: mutating calls on
// write-guarded fields, *Locked callees, and fsync under a foreign
// lock.
func (lw *lockWalker) checkCall(call *ast.CallExpr, held map[lockKey]lockMode) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	// Rule: mutating call on a write-guarded field.
	if inner, ok := sel.X.(*ast.SelectorExpr); ok && mutatingCalls[sel.Sel.Name] {
		if selection, ok := lw.pass.Pkg.Info.Selections[inner]; ok && selection.Kind() == types.FieldVal {
			if info, guarded := lw.guards.fields[selection.Obj()]; guarded && info.writeOnly {
				for _, mu := range info.mutexes {
					if key, ok := lw.guardKey(inner.X, mu); ok && held[key] != modeWrite {
						lw.pass.Reportf(call.Pos(), "%s on write-guarded field %s without holding %s: the mutation is no longer atomic with the bookkeeping the lock protects", sel.Sel.Name, selection.Obj().Name(), mu)
					}
				}
			}
		}
	}
	// Rule: calling a *Locked method without the locks it needs.
	if strings.HasSuffix(sel.Sel.Name, "Locked") {
		if tv, ok := lw.pass.Pkg.Info.Types[sel.X]; ok {
			for _, mu := range lw.lockedNeeds(lw.pass.Pkg.Info.Uses[sel.Sel], namedOf(tv.Type)) {
				if key, ok := lw.guardKey(sel.X, mu); ok && held[key] == 0 {
					lw.pass.Reportf(call.Pos(), "call to %s without holding %s: *Locked methods assume the caller locked", sel.Sel.Name, mu)
				}
			}
		}
	}
	// Rule: fsync while holding someone else's lock.
	if sel.Sel.Name == "Sync" && isOSFile(lw.pass, sel.X) {
		recvRoot, _, ok := selectorPath(sel.X)
		if !ok {
			return
		}
		recvObj := lw.pass.Pkg.Info.Uses[recvRoot]
		for key := range held {
			if recvObj == nil || key.root != recvObj {
				lw.pass.Reportf(call.Pos(), "fsync while holding %s, a lock belonging to a different object: the flush stalls every waiter of that lock", key.path)
				return
			}
		}
	}
}

// guardKey builds the held-map key for "the mutex named mu on the
// object sel.X": root object plus path, e.g. r.backing -> (r, "mu"),
// h.reg.total -> (h, "reg.mu").
func (lw *lockWalker) guardKey(base ast.Expr, mutex string) (lockKey, bool) {
	root, path, ok := selectorPath(base)
	if !ok {
		return lockKey{}, false
	}
	obj := lw.pass.Pkg.Info.Uses[root]
	if obj == nil {
		obj = lw.pass.Pkg.Info.Defs[root]
	}
	if obj == nil {
		return lockKey{}, false
	}
	if path != "" {
		mutex = path + "." + mutex
	}
	return lockKey{root: obj, path: mutex}, true
}

func isOSFile(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok {
		return false
	}
	named := namedOf(tv.Type)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "File" && obj.Pkg() != nil && obj.Pkg().Path() == "os"
}

// bodyTerminates reports whether a statement list always transfers
// control out (return, branch, panic, or an if/else where both arms
// terminate).
func bodyTerminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.IfStmt:
		if last.Else != nil {
			return bodyTerminates(last.Body.List) && bodyTerminates(elseStmts(last.Else))
		}
	case *ast.BlockStmt:
		return bodyTerminates(last.List)
	}
	return false
}

func elseStmts(els ast.Stmt) []ast.Stmt {
	switch x := els.(type) {
	case *ast.BlockStmt:
		return x.List
	case *ast.IfStmt:
		return []ast.Stmt{x}
	case nil:
		return nil
	}
	return nil
}

func copyHeld(held map[lockKey]lockMode) map[lockKey]lockMode {
	out := make(map[lockKey]lockMode, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func replaceHeld(held, with map[lockKey]lockMode) {
	for k := range held {
		delete(held, k)
	}
	for k, v := range with {
		held[k] = v
	}
}

// mergeHeld intersects the surviving branch states into held: a lock is
// held after the construct only if every fall-through path holds it,
// and at the weakest mode any path holds.
func mergeHeld(held map[lockKey]lockMode, survivors []map[lockKey]lockMode) {
	if len(survivors) == 0 {
		return // no fall-through: unreachable after, keep held as-is
	}
	merged := copyHeld(survivors[0])
	for _, s := range survivors[1:] {
		for k, v := range merged {
			sv, ok := s[k]
			if !ok {
				delete(merged, k)
			} else if sv < v {
				merged[k] = sv
			}
		}
	}
	replaceHeld(held, merged)
}
