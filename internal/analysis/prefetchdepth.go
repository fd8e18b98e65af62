package analysis

import (
	"go/ast"
)

// PrefetchDepth enforces the read-ahead sizing rule: the depth handed
// to a prefetch entry point (store.SeqReader.SetReadAhead and any other
// method named in Config.PrefetchMethods) must be a compile-time
// constant. A depth computed at run time could come from data (a match
// count, a hidden cardinality, a result length) and would then modulate
// the shape of flash traffic with hidden state, re-opening exactly the
// side channel the grant discipline closed. Operators size their RAM
// through their stages' claims, never through a read-ahead depth.
//
// Accepted depth expressions: any constant expression — literals, named
// constants and their arithmetic or builtin min/max combinations.
var PrefetchDepth = &Analyzer{
	Name: "prefetchdepth",
	Doc:  "read-ahead depths must be constants",
	Run:  runPrefetchDepth,
}

func runPrefetchDepth(pass *Pass) error {
	cfg := pass.Cfg
	if len(cfg.PrefetchMethods) == 0 {
		return nil
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !contains(cfg.PrefetchMethods, sel.Sel.Name) || len(call.Args) == 0 {
				return true
			}
			if info.TypeOf(sel.X) == nil {
				return true // a package selector, not a method call
			}
			if tv, ok := info.Types[call.Args[0]]; !ok || tv.Value == nil {
				pass.Reportf(call.Args[0].Pos(),
					"read-ahead depth must be a constant; a data-dependent depth modulates flash traffic with hidden state")
			}
			return true
		})
	}
	return nil
}
