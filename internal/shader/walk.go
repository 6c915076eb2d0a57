package shader

import "glescompute/internal/glsl"

// walk calls visit for n and then for every statement and expression below
// it, in source order. A declaration's children are its initializers. When
// visit returns false, n's children are skipped.
func walk(n glsl.Node, visit func(glsl.Node) bool) {
	if !visit(n) {
		return
	}
	sub := func(c glsl.Node) {
		if c != nil {
			walk(c, visit)
		}
	}
	switch n := n.(type) {
	case *glsl.BlockStmt:
		for _, s := range n.Stmts {
			sub(s)
		}
	case *glsl.DeclStmt:
		for _, v := range n.Vars {
			if v.Init != nil {
				sub(v.Init)
			}
		}
	case *glsl.ExprStmt:
		sub(n.X)
	case *glsl.IfStmt:
		sub(n.Cond)
		sub(n.Then)
		if n.Else != nil {
			sub(n.Else)
		}
	case *glsl.ForStmt:
		if n.InitStmt != nil {
			sub(n.InitStmt)
		}
		if n.Cond != nil {
			sub(n.Cond)
		}
		if n.Post != nil {
			sub(n.Post)
		}
		sub(n.Body)
	case *glsl.WhileStmt:
		sub(n.Cond)
		sub(n.Body)
	case *glsl.DoWhileStmt:
		sub(n.Body)
		sub(n.Cond)
	case *glsl.ReturnStmt:
		if n.X != nil {
			sub(n.X)
		}
	case *glsl.BinaryExpr:
		sub(n.X)
		sub(n.Y)
	case *glsl.UnaryExpr:
		sub(n.X)
	case *glsl.CondExpr:
		sub(n.Cond)
		sub(n.Then)
		sub(n.Else)
	case *glsl.AssignExpr:
		sub(n.LHS)
		sub(n.RHS)
	case *glsl.SequenceExpr:
		sub(n.X)
		sub(n.Y)
	case *glsl.CallExpr:
		for _, a := range n.Args {
			sub(a)
		}
	case *glsl.FieldExpr:
		sub(n.X)
	case *glsl.IndexExpr:
		sub(n.X)
		sub(n.Index)
	}
}

// anyNode reports whether pred holds for e or any expression inside it.
func anyNode(e glsl.Expr, pred func(glsl.Node) bool) bool {
	found := false
	walk(e, func(n glsl.Node) bool {
		found = found || pred(n)
		return !found
	})
	return found
}

// writeRoots calls mark with the root variable of each place n itself
// writes: an assignment or ++/-- target, or an out or inout argument of a
// user call. It does not look below n.
func writeRoots(n glsl.Node, mark func(*glsl.Ident)) {
	root := func(e glsl.Expr) {
		for {
			switch x := e.(type) {
			case *glsl.Ident:
				mark(x)
				return
			case *glsl.FieldExpr:
				e = x.X
			case *glsl.IndexExpr:
				e = x.X
			default:
				return
			}
		}
	}
	switch n := n.(type) {
	case *glsl.AssignExpr:
		root(n.LHS)
	case *glsl.UnaryExpr:
		if n.Op == glsl.TokInc || n.Op == glsl.TokDec {
			root(n.X)
		}
	case *glsl.CallExpr:
		if n.Kind == glsl.CallUser && n.Func != nil {
			for i, p := range n.Func.Params {
				if p.Dir != glsl.DirIn && i < len(n.Args) {
					root(n.Args[i])
				}
			}
		}
	}
}
