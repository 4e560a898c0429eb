package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockOrder machine-enforces the PR 9 lock-ordering rule that until now
// lived only in server/metrics.go's doc comment: the server mutex is
// held around instrument registration (which takes the obs registry
// lock), so code running at scrape time — obs collectors, GaugeFunc and
// CounterFunc callbacks — must never acquire it back. A violation is a
// scrape-time deadlock waiting to be scheduled.
//
// Mutex fields annotated //hotnoc:scrapelocked are the protected set.
// Roots are found syntactically: function literals or named functions
// passed to Registry.Collect / GaugeFunc / CounterFunc (package obs),
// plus function literals returned from a function whose result type is
// obs.Collector. From each root the
// analyzer walks statically resolved calls across the whole module and
// reports any path that calls Lock, RLock, or TryLock on an annotated
// mutex.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "forbid obs collectors from acquiring //hotnoc:scrapelocked mutexes, transitively",
	Run:  runLockOrder,
}

// lockedMutexFact marks a struct field as //hotnoc:scrapelocked,
// remembering its display name for reports.
type lockedMutexFact struct{ name string }

// acquireSite is one direct Lock/RLock on an annotated mutex.
type acquireSite struct {
	pos   token.Pos
	mutex string
}

// lockCall is a statically resolved module call whose acquisitions
// count against the caller.
type lockCall struct {
	pos token.Pos
	fn  *types.Func
}

// lockSummary is one function body's locking behavior.
type lockSummary struct {
	acquires []acquireSite
	calls    []lockCall
}

func runLockOrder(pass *Pass) error {
	info := pass.Pkg.Info

	// Pass one: collect //hotnoc:scrapelocked fields.
	for _, f := range pass.Pkg.Files {
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
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					if !hasDirective(field.Doc, "scrapelocked") && !hasDirective(field.Comment, "scrapelocked") {
						continue
					}
					for _, name := range field.Names {
						if obj := info.Defs[name]; obj != nil {
							pass.ExportFact(obj, lockedMutexFact{name: ts.Name.Name + "." + name.Name})
						}
					}
				}
			}
		}
	}

	// Pass two: summarize every function and function literal.
	litSummaries := map[*ast.FuncLit]*lockSummary{}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			pass.ExportFact(fn, summarizeLocks(pass, fd.Body))
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				litSummaries[lit] = summarizeLocks(pass, lit.Body)
			}
			return true
		})
	}

	// Pass three: find roots and walk their call graphs.
	memo := map[*types.Func]string{}
	visiting := map[*types.Func]bool{}
	var acquired func(fn *types.Func) string
	acquired = func(fn *types.Func) string {
		if r, ok := memo[fn]; ok {
			return r
		}
		if visiting[fn] {
			return ""
		}
		fact, ok := pass.Fact(fn)
		if !ok {
			return ""
		}
		sum, ok := fact.(*lockSummary)
		if !ok {
			return ""
		}
		visiting[fn] = true
		defer delete(visiting, fn)
		result := ""
		if len(sum.acquires) > 0 {
			result = "acquires " + sum.acquires[0].mutex
		} else {
			for _, c := range sum.calls {
				if sub := acquired(c.fn); sub != "" {
					result = "calls " + c.fn.FullName() + ", which " + sub
					break
				}
			}
		}
		memo[fn] = result
		return result
	}

	reportRoot := func(kind string, sum *lockSummary) {
		for _, a := range sum.acquires {
			pass.Reportf(a.pos, "%s acquires %s (//hotnoc:scrapelocked): scrape-time code must never take it", kind, a.mutex)
		}
		for _, c := range sum.calls {
			if reason := acquired(c.fn); reason != "" {
				pass.Reportf(c.pos, "%s calls %s, which %s (//hotnoc:scrapelocked): scrape-time code must never take it", kind, c.fn.FullName(), reason)
			}
		}
	}
	reportRootExpr := func(kind string, e ast.Expr) {
		switch arg := ast.Unparen(e).(type) {
		case *ast.FuncLit:
			if sum := litSummaries[arg]; sum != nil {
				reportRoot(kind, sum)
			}
		default:
			if fn := exprFunc(info, arg); fn != nil {
				if fact, ok := pass.Fact(fn); ok {
					if sum, ok := fact.(*lockSummary); ok {
						reportRoot(kind+" "+fn.Name(), sum)
					}
				}
			}
		}
	}

	for _, f := range pass.Pkg.Files {
		// Function literals returned as obs.Collector values.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !returnsObsCollector(info, fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				ret, ok := n.(*ast.ReturnStmt)
				if !ok {
					return true
				}
				for _, res := range ret.Results {
					if lit, ok := ast.Unparen(res).(*ast.FuncLit); ok {
						if sum := litSummaries[lit]; sum != nil {
							reportRoot("collector returned by "+fd.Name.Name, sum)
						}
					}
				}
				return true
			})
		}
		// Arguments to Collect / GaugeFunc / CounterFunc.
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := staticCallee(info, call)
			if fn == nil {
				return true
			}
			if fn.Pkg() == nil || fn.Pkg().Name() != "obs" || (fn.Name() != "Collect" && fn.Name() != "GaugeFunc" && fn.Name() != "CounterFunc") {
				return true
			}
			for _, arg := range call.Args {
				if t := info.TypeOf(arg); t != nil {
					if _, ok := types.Unalias(t).Underlying().(*types.Signature); !ok {
						continue // labels, names, bounds — only function args are roots
					}
				}
				reportRootExpr("obs collector", arg)
			}
			return true
		})
	}
	return nil
}

// exprFunc resolves an expression used as a function value to its
// declaration, if statically known.
func exprFunc(info *types.Info, e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[e].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
		} else if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// returnsObsCollector reports whether fd's (single) result type is the
// named type Collector from a package named obs.
func returnsObsCollector(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil || len(fd.Type.Results.List) != 1 {
		return false
	}
	t := info.TypeOf(fd.Type.Results.List[0].Type)
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Collector" && obj.Pkg() != nil && obj.Pkg().Name() == "obs"
}

// summarizeLocks scans one body for acquisitions of annotated mutexes
// and for module calls. Nested function literals are skipped: they get
// their own summaries, and whether they run under the root is a
// question their own registration answers.
func summarizeLocks(pass *Pass, body *ast.BlockStmt) *lockSummary {
	info := pass.Pkg.Info
	sum := &lockSummary{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// x.mu.Lock(): an acquisition when mu is an annotated field.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Lock", "RLock", "TryLock", "TryRLock":
				if mutex, ok := annotatedMutex(pass, sel.X); ok {
					if !pass.Suppressed(call.Pos()) {
						sum.acquires = append(sum.acquires, acquireSite{call.Pos(), mutex})
					}
					return true
				}
			}
		}
		if fn := staticCallee(info, call); fn != nil {
			// Non-module callees have no summary fact, so the
			// transitive walk treats them as lock-free.
			sum.calls = append(sum.calls, lockCall{call.Pos(), fn})
		}
		return true
	})
	return sum
}

// annotatedMutex resolves the receiver of a Lock call to a struct field
// and reports whether that field is //hotnoc:scrapelocked.
func annotatedMutex(pass *Pass, recv ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(recv).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	var obj types.Object
	if s, ok := pass.Pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		obj = s.Obj()
	} else {
		obj = pass.Pkg.Info.Uses[sel.Sel]
	}
	if obj == nil {
		return "", false
	}
	if fact, ok := pass.Fact(obj); ok {
		if mf, ok := fact.(lockedMutexFact); ok {
			return mf.name, true
		}
	}
	return "", false
}
