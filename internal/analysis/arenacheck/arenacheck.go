// Package arenacheck enforces the arena ownership rules documented on
// congest.NetworkArena and cycles.Arena: an arena may be borrowed by at
// most one live network/engine at a time, must never be shared across
// concurrently-running workers, and the buffers it hands out are loans —
// valid only until the arena's owner recycles them — so they must not be
// stored into structures that outlive the owner.
//
// Types participate via directives on their declarations:
//
//   - //kecss:arena marks an arena type. arenacheck tracks values of the
//     type (and pointers to it) through the package.
//   - //kecss:arena-owner marks a type whose fields may legitimately hold
//     an arena or arena-derived buffers, because its lifetime is bounded
//     by one loan of the arena (congest.Network, cycles.Incremental).
//
// In every package it then reports:
//
//   - an arena value stored into a field (or composite literal) of a type
//     not marked arena-owner — re-sharing an existing arena widens its
//     ownership, which is how two live borrowers happen. Constructing a
//     fresh arena into a field (x.f = NewArena()) is ownership creation
//     and always fine.
//   - an arena value referenced inside a `go` statement — an arena moving
//     onto another goroutine while borrowed is shared across goroutines;
//     arenas change goroutines only through their package's sync.Pool.
//   - a buffer obtained from an arena method stored into a field of a
//     non-owner type (directly or through one local alias) — the loaned
//     buffer would outlive its loan.
//
// A vetted exception carries `//kecss:arena-ok <justification>` on its
// line or the line above.
package arenacheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the arenacheck instance wired into kecss-vet.
var Analyzer = &analysis.Analyzer{
	Name: "arenacheck",
	Doc:  "enforce //kecss:arena ownership: no re-sharing arenas into non-owner fields, across goroutines, or leaking arena-backed buffers",
	Run:  run,
}

const (
	arenaDirective = "arena"
	ownerDirective = "arena-owner"
	okDirective    = "arena-ok"
)

func run(pass *analysis.Pass) (any, error) {
	dirs := analysis.CollectDirectives(pass)
	c := &checker{
		pass:   pass,
		dirs:   dirs,
		arenas: collectMarked(pass, dirs, arenaDirective),
		owners: collectMarked(pass, dirs, ownerDirective),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				c.checkFunc(fn.Body)
			}
		}
	}
	return nil, nil
}

// wellKnownArenas are the repo's arena types, recognized across package
// boundaries (a directive in package congest is invisible when analyzing
// any other package that handles a *congest.NetworkArena).
var wellKnownArenas = map[string]map[string]bool{
	"repro/internal/congest": {"NetworkArena": true},
	"repro/internal/cycles":  {"Arena": true},
}

// collectMarked resolves directive-marked type declarations of this
// package to their named types.
func collectMarked(pass *analysis.Pass, dirs *analysis.Directives, directive string) map[*types.TypeName]bool {
	out := make(map[*types.TypeName]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				marked := dirs.GenDeclHas(ts.Doc, ts.Pos(), directive)
				if !marked && len(gd.Specs) == 1 {
					marked = dirs.GenDeclHas(gd.Doc, gd.Pos(), directive)
				}
				if !marked {
					continue
				}
				if tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
					out[tn] = true
				}
			}
		}
	}
	return out
}

type checker struct {
	pass   *analysis.Pass
	dirs   *analysis.Directives
	arenas map[*types.TypeName]bool
	owners map[*types.TypeName]bool

	// derived tracks locals assigned from arena-method results in the
	// current function, one level deep.
	derived map[*types.Var]bool
}

func (c *checker) ok(pos token.Pos) bool { return c.dirs.HasAt(pos, okDirective) }

// namedOf unwraps pointers to the named type, if any.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func (c *checker) isArena(t types.Type) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	if c.arenas[n.Obj()] {
		return true
	}
	if pkg := n.Obj().Pkg(); pkg != nil {
		return wellKnownArenas[pkg.Path()][n.Obj().Name()]
	}
	return false
}

// isOwner reports whether t is marked //kecss:arena-owner in this package.
// Every owner type is declared beside the arena it borrows, so no owner is
// ever built in another package.
func (c *checker) isOwner(t types.Type) bool {
	n := namedOf(t)
	return n != nil && c.owners[n.Obj()]
}

func (c *checker) checkFunc(body *ast.BlockStmt) {
	saved := c.derived
	c.derived = make(map[*types.Var]bool)
	defer func() { c.derived = saved }()
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			c.checkAssign(n)
		case *ast.GoStmt:
			c.checkGo(n)
		case *ast.CompositeLit:
			c.checkCompositeLit(n)
		}
		return true
	})
	return
}

// checkAssign applies the field-store rules and maintains local tracking.
func (c *checker) checkAssign(s *ast.AssignStmt) {
	n := len(s.Lhs)
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if len(s.Rhs) == n {
			rhs = s.Rhs[i]
		} else if len(s.Rhs) == 1 {
			rhs = s.Rhs[0] // multi-value call; derived tracking skips these
		}
		// Track locals aliasing arena-derived buffers.
		if id, ok := lhs.(*ast.Ident); ok {
			if obj, ok := c.pass.TypesInfo.ObjectOf(id).(*types.Var); ok {
				c.derived[obj] = len(s.Rhs) == n && c.isArenaDerived(rhs)
			}
			continue
		}
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		selection := c.pass.TypesInfo.Selections[sel]
		if selection == nil || selection.Kind() != types.FieldVal {
			continue
		}
		target := c.pass.TypesInfo.TypeOf(sel.X)
		if rhs == nil || len(s.Rhs) != n {
			continue
		}
		rv := unparen(rhs)
		switch {
		case c.isArena(c.pass.TypesInfo.TypeOf(rv)):
			if isConstructorCall(rv) {
				continue // x.f = NewArena(): ownership creation
			}
			if c.isOwner(target) || c.ok(s.Pos()) {
				continue
			}
			c.pass.Reportf(s.Pos(), "existing arena value %s stored into field of non-owner type %s: re-sharing an arena widens its ownership (mark the type //kecss:arena-owner if its lifetime is bounded by the arena's owner, or //kecss:arena-ok with a justification)", types.ExprString(rv), typeName(target))
		case c.isArenaDerived(rv):
			if c.isOwner(target) || c.ok(s.Pos()) {
				continue
			}
			c.pass.Reportf(s.Pos(), "arena-derived buffer %s stored into field of non-owner type %s: the buffer is a loan that must not outlive the arena's owner (//kecss:arena-owner or //kecss:arena-ok to vet)", types.ExprString(rv), typeName(target))
		}
	}
}

// checkGo reports arena values crossing into a spawned goroutine.
func (c *checker) checkGo(s *ast.GoStmt) {
	ast.Inspect(s.Call, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		switch e.(type) {
		case *ast.Ident, *ast.SelectorExpr:
		default:
			return true
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			// Only the selected value itself, not the path to it.
			if selection := c.pass.TypesInfo.Selections[sel]; selection == nil || selection.Kind() != types.FieldVal {
				return true
			}
		}
		if c.isArena(c.pass.TypesInfo.TypeOf(e)) && !c.ok(s.Pos()) && !c.ok(e.Pos()) {
			c.pass.Reportf(e.Pos(), "arena value %s crosses into a goroutine: arenas are single-owner scratch and must not be shared across workers (//kecss:arena-ok to vet)", types.ExprString(e))
			return false
		}
		return true
	})
}

// checkCompositeLit reports arena values seeded into literals of non-owner
// struct types.
func (c *checker) checkCompositeLit(lit *ast.CompositeLit) {
	t := c.pass.TypesInfo.TypeOf(lit)
	if namedOf(t) == nil {
		return
	}
	if _, isStruct := namedOf(t).Underlying().(*types.Struct); !isStruct {
		return
	}
	if c.isOwner(t) || c.isArena(t) {
		return
	}
	for _, el := range lit.Elts {
		v := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			v = kv.Value
		}
		v = unparen(v)
		if c.isArena(c.pass.TypesInfo.TypeOf(v)) && !isConstructorCall(v) && !c.ok(v.Pos()) && !c.ok(lit.Pos()) {
			c.pass.Reportf(v.Pos(), "existing arena value %s seeded into literal of non-owner type %s (//kecss:arena-owner on the type or //kecss:arena-ok to vet)", types.ExprString(v), typeName(t))
		}
	}
}

// isArenaDerived reports whether e is (an alias of) a buffer handed out by
// an arena method.
func (c *checker) isArenaDerived(e ast.Expr) bool {
	switch e := unparen(e).(type) {
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		selection := c.pass.TypesInfo.Selections[sel]
		if selection == nil || selection.Kind() != types.MethodVal {
			return false
		}
		return c.isArena(selection.Recv())
	case *ast.Ident:
		obj, ok := c.pass.TypesInfo.ObjectOf(e).(*types.Var)
		return ok && c.derived[obj]
	case *ast.IndexExpr:
		return c.isArenaDerived(e.X)
	case *ast.SliceExpr:
		return c.isArenaDerived(e.X)
	}
	return false
}

// isConstructorCall reports whether e is a direct call (not an arena
// method call) — the shape of NewArena()/pool.Get-style ownership
// creation.
func isConstructorCall(e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	return ok && call != nil
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func typeName(t types.Type) string {
	if n := namedOf(t); n != nil {
		return n.Obj().Name()
	}
	if t == nil {
		return "?"
	}
	return t.String()
}
