package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// NoAlloc rejects allocating constructs in functions whose doc comment
// carries //hotnoc:noalloc — the static complement to the runtime
// testing.AllocsPerRun guard, which only covers benchmarked entry
// points. The check is transitive over statically resolved calls into
// the module: an annotated kernel calling an allocating helper is
// reported at the call site. Calls outside the module are allowed only
// for a small arithmetic/atomic/locking allowlist; everything else is
// assumed to allocate.
//
// Two cold paths are exempt: the arguments of panic calls, and
// errors.New / fmt.Errorf when the call appears inside a return
// statement (constructing the error return on the failure path).
// Amortized scratch growth must be suppressed explicitly with
// //hotnoc:allow noalloc <reason>; the suppression also cleans the
// function's summary for its callers.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "report allocating constructs in //hotnoc:noalloc functions, transitively over module calls",
	Run:  runNoAlloc,
}

// allocReason is one allocation site inside a function.
type allocReason struct {
	pos  token.Pos
	what string
}

// allocCall is a statically resolved call into the module whose
// allocations count against the caller.
type allocCall struct {
	pos token.Pos
	fn  *types.Func
}

// allocSummary is a function's allocation behavior: its own sites plus
// the module calls it makes. Exported as a fact so later packages see
// through their imports.
type allocSummary struct {
	reasons []allocReason
	calls   []allocCall
}

// allocCleanStdlib are the non-module packages whose calls are trusted
// not to allocate (pure arithmetic and atomics; sync mutex operations
// are allowlisted by method below).
var allocCleanStdlib = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
	"sort":        false, // sort.Slice allocates its closure; keep it out explicitly
}

func runNoAlloc(pass *Pass) error {
	var annotated []*ast.FuncDecl
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			pass.ExportFact(fn, summarizeAlloc(pass, fd.Body))
			if hasDirective(fd.Doc, "noalloc") {
				annotated = append(annotated, fd)
			}
		}
	}

	memo := map[*types.Func]string{}
	visiting := map[*types.Func]bool{}
	var allocates func(fn *types.Func) string
	allocates = func(fn *types.Func) string {
		if r, ok := memo[fn]; ok {
			return r
		}
		if visiting[fn] {
			return "" // recursion: optimistic, the cycle's own sites are reported at their origin
		}
		fact, ok := pass.Fact(fn)
		if !ok {
			r := externalAllocReason(fn)
			memo[fn] = r
			return r
		}
		sum := fact.(*allocSummary)
		visiting[fn] = true
		defer delete(visiting, fn)
		result := ""
		if len(sum.reasons) > 0 {
			result = sum.reasons[0].what
		} else {
			for _, c := range sum.calls {
				if sub := allocates(c.fn); sub != "" {
					result = fmt.Sprintf("calls %s: %s", c.fn.FullName(), sub)
					break
				}
			}
		}
		memo[fn] = result
		return result
	}

	for _, fd := range annotated {
		fn := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
		sum, _ := pass.Fact(fn)
		for _, r := range sum.(*allocSummary).reasons {
			pass.Reportf(r.pos, "%s in //hotnoc:noalloc function %s", r.what, fd.Name.Name)
		}
		for _, c := range sum.(*allocSummary).calls {
			if reason := allocates(c.fn); reason != "" {
				pass.Reportf(c.pos, "//hotnoc:noalloc function %s calls %s, which may allocate: %s",
					fd.Name.Name, c.fn.FullName(), reason)
			}
		}
	}
	return nil
}

// summarizeAlloc scans one function body for allocation sites and
// module calls. Suppressed sites (//hotnoc:allow noalloc) are dropped
// here so they neither report nor taint callers.
func summarizeAlloc(pass *Pass, body *ast.BlockStmt) *allocSummary {
	info := pass.Pkg.Info
	sum := &allocSummary{}
	add := func(pos token.Pos, what string) {
		if !pass.Suppressed(pos) {
			sum.reasons = append(sum.reasons, allocReason{pos, what})
		}
	}

	var inReturn int
	var walk func(n ast.Node)
	walkAll := func(nodes ...ast.Node) {
		for _, n := range nodes {
			if n != nil {
				walk(n)
			}
		}
	}
	walkExprs := func(exprs []ast.Expr) {
		for _, e := range exprs {
			walk(e)
		}
	}
	walk = func(n ast.Node) {
		switch n := n.(type) {
		case *ast.FuncLit:
			add(n.Pos(), "function literal (may escape to the heap)")
			return // do not descend: the literal's body runs elsewhere
		case *ast.ReturnStmt:
			inReturn++
			walkExprs(n.Results)
			inReturn--
			return
		case *ast.GoStmt:
			add(n.Pos(), "go statement (new goroutine allocates)")
			return
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if t != nil {
				switch types.Unalias(t).Underlying().(type) {
				case *types.Slice:
					add(n.Pos(), "slice literal")
				case *types.Map:
					add(n.Pos(), "map literal")
				}
			}
			walkExprs(n.Elts)
			return
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					add(n.Pos(), "address of composite literal (escapes to the heap)")
				}
			}
			walk(n.X)
			return
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := info.TypeOf(n); t != nil {
					if b, ok := types.Unalias(t).Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						add(n.Pos(), "string concatenation")
					}
				}
			}
			walkAll(n.X, n.Y)
			return
		case *ast.CallExpr:
			summarizeCall(pass, sum, add, n, inReturn > 0, walk)
			return
		}
		// Default: descend into every child.
		ast.Inspect(n, func(child ast.Node) bool {
			if child == n {
				return true
			}
			if child != nil {
				walk(child)
			}
			return false
		})
	}
	walk(body)
	return sum
}

// summarizeCall classifies one call expression for the noalloc summary.
func summarizeCall(pass *Pass, sum *allocSummary, add func(token.Pos, string), call *ast.CallExpr, inReturn bool, walk func(ast.Node)) {
	info := pass.Pkg.Info
	walkArgs := func() {
		// The callee's receiver/operand chain can itself allocate
		// (method call on a returned value); the selector and identifier
		// leaves are inert.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			walk(sel.X)
		}
		for _, a := range call.Args {
			walk(a)
		}
	}

	// Conversions: T(x).
	if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		dst := types.Unalias(tv.Type).Underlying()
		if len(call.Args) == 1 {
			src := info.TypeOf(call.Args[0])
			switch {
			case isStringByteConversion(dst, src):
				add(call.Pos(), "string/[]byte conversion copies")
			case types.IsInterface(dst) && src != nil && !types.IsInterface(types.Unalias(src).Underlying()):
				add(call.Pos(), "interface conversion boxes its operand")
			}
		}
		walkArgs()
		return
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				add(call.Pos(), "append may grow its backing array")
			case "make":
				add(call.Pos(), "make allocates")
			case "new":
				add(call.Pos(), "new allocates")
			case "panic":
				return // cold path: the program is going down, allocation is fine
			}
			walkArgs()
			return
		}
	}

	fn := staticCallee(info, call)
	if fn == nil {
		add(call.Pos(), "dynamic call through a function value (unknown allocations)")
		walkArgs()
		return
	}

	if inReturn && isErrorConstructor(fn) {
		walkArgs()
		return // cold failure path: constructing the returned error
	}
	addBoxingReasons(info, add, call, fn)
	// Whether the callee allocates is decided at resolution time, when
	// every function in the package has a summary; a suppressed call
	// site is dropped here so it cleans the summary for callers too.
	// An instantiated generic function or method is summarized by its
	// generic declaration.
	if !pass.Suppressed(call.Pos()) {
		sum.calls = append(sum.calls, allocCall{call.Pos(), fn.Origin()})
	}
	walkArgs()
}

// externalAllocReason classifies a call with no summary (stdlib, or a
// bodyless module function such as an interface method): clean for the
// arithmetic/atomic/locking allowlist, assumed to allocate otherwise.
func externalAllocReason(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	if allocCleanStdlib[fn.Pkg().Path()] || isSyncLockMethod(fn) || isPureTimeMethod(fn) {
		return ""
	}
	if fn.Pkg().Path() == "fmt" {
		return fmt.Sprintf("fmt.%s allocates (formatting boxes arguments)", fn.Name())
	}
	return fmt.Sprintf("no summary for %s, assumed to allocate", fn.FullName())
}

// isPureTimeMethod allows the arithmetic methods on time.Duration and
// time.Time (String and the marshalers are deliberately absent).
func isPureTimeMethod(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return false
	}
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	switch fn.Name() {
	case "Seconds", "Nanoseconds", "Microseconds", "Milliseconds",
		"Minutes", "Hours", "Sub", "Before", "After", "Equal",
		"Unix", "UnixNano", "UnixMicro", "UnixMilli", "IsZero":
		return true
	}
	return false
}

// addBoxingReasons reports concrete arguments passed to interface
// parameters of an otherwise clean call: the implicit conversion boxes.
func addBoxingReasons(info *types.Info, add func(token.Pos, string), call *ast.CallExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params() == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || isUntypedNil(info, arg) {
			continue
		}
		if types.IsInterface(types.Unalias(pt).Underlying()) && !types.IsInterface(types.Unalias(at).Underlying()) {
			add(arg.Pos(), fmt.Sprintf("argument %d to %s boxes into an interface", i, fn.Name()))
		}
	}
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}

func isStringByteConversion(dst, src types.Type) bool {
	if src == nil {
		return false
	}
	su := types.Unalias(src).Underlying()
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isBytes := func(t types.Type) bool {
		s, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		e, ok := types.Unalias(s.Elem()).Underlying().(*types.Basic)
		return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
	}
	return (isStr(dst) && isBytes(su)) || (isBytes(dst) && isStr(su))
}

// isSyncLockMethod allows the sync mutex operations: locking does not
// allocate, and noalloc code legitimately guards shared scratch.
func isSyncLockMethod(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
		return true
	}
	return false
}

// isErrorConstructor recognizes the two standard error factories whose
// use inside a return statement is a cold failure path.
func isErrorConstructor(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	full := fn.Pkg().Path() + "." + fn.Name()
	return full == "errors.New" || full == "fmt.Errorf"
}
