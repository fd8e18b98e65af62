package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// GrantSize enforces the RAM-grant discipline inside the execution
// package: buffers allocated on the query path must size themselves
// from the admission grant (a stage's ram.Claim allotment), never
// from a hard-coded literal. A literal-sized buffer silently consumes
// secure RAM the admission floor never accounted for — exactly the bug
// class that reintroduces mid-run exhaustion under crowded budgets.
//
// Concretely: inside ExecPkg, any make() whose size or capacity is a
// compile-time constant of GrantSizeMin elements or more is flagged.
// Tiny fixed scratch (a 4-byte length prefix, a pair of cursors) is
// allowed below the threshold, and genuinely data-independent buffers
// can be annotated //ghostdb:fixedsize with a justification.
var GrantSize = &Analyzer{
	Name: "grantsize",
	Doc:  "exec-path make() sizes must derive from the admission grant, not literals",
	Run:  runGrantSize,
}

func runGrantSize(pass *Pass) error {
	if pass.Pkg.Path != pass.Cfg.ExecPkg {
		return nil
	}
	info := pass.Pkg.Info
	min := pass.Cfg.GrantSizeMin
	for _, f := range pass.Pkg.Files {
		exempt := lineMarkers(pass.Prog.Fset, f, MarkFixedSize)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "make" || len(call.Args) < 2 {
				return true
			}
			if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			if exempt[pass.Prog.Fset.Position(call.Pos()).Line] {
				return true
			}
			for _, arg := range call.Args[1:] {
				tv, ok := info.Types[arg]
				if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
					continue
				}
				v, ok := constant.Int64Val(tv.Value)
				if !ok || v < min {
					continue
				}
				pass.Reportf(arg.Pos(),
					"make with constant size %d on the exec path: derive the capacity from a stage's RAM claims or annotate //%s",
					v, MarkFixedSize)
			}
			return true
		})
	}
	return nil
}
