package lint

import (
	"go/ast"
	"go/types"
)

// Determinism guards the bitwise-stable scopes: files or functions
// annotated //hotnoc:deterministic promise that their output is a pure
// function of their inputs, so a warm rerun or a remote run is
// byte-identical. Inside the scope the analyzer reports:
//
//   - ranging over a map, unless the body is exactly the
//     collect-the-keys idiom (`keys = append(keys, k)`) that feeds a
//     sort — any other use observes the nondeterministic order;
//   - time.Now / time.Since / time.Until — wall-clock reads belong
//     behind the injected clocks;
//   - the global math/rand functions — randomness must flow through a
//     seeded *rand.Rand (rand.New / rand.NewSource are allowed, as is
//     every method on an explicit generator);
//   - select statements with more than one communication clause —
//     completion order is scheduling-dependent, so ordered paths must
//     sequence channel operations explicitly.
//
// Order-independent exceptions (commutative integer folds, cancellation
// selects on error paths) carry //hotnoc:allow determinism <reason>
// suppressions as their audit trail.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "report nondeterministic constructs in //hotnoc:deterministic scopes",
	Run:  runDeterminism,
}

// randConstructors are the math/rand package-level functions that build
// explicit generators rather than consuming the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		fileScope := fileHasDirective(f, "deterministic")
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fileScope || hasDirective(fd.Doc, "deterministic") {
				checkDeterministic(pass, fd.Body)
			}
		}
	}
	return nil
}

func checkDeterministic(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if isMapType(info.TypeOf(n.X)) && !isKeyCollectLoop(info, n) {
				pass.Reportf(n.Pos(), "ranges over a map in a deterministic scope (iteration order is random); collect the keys and sort, or use slices.Sorted(maps.Keys(m))")
			}
		case *ast.SelectStmt:
			comms := 0
			for _, clause := range n.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
					comms++
				}
			}
			if comms > 1 {
				pass.Reportf(n.Pos(), "selects over %d channels in a deterministic scope (completion order is scheduling-dependent)", comms)
			}
		case *ast.CallExpr:
			fn := staticCallee(info, n)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					pass.Reportf(n.Pos(), "calls time.%s in a deterministic scope; inject the clock instead", fn.Name())
				}
			case "math/rand", "math/rand/v2":
				// Methods on an explicit *rand.Rand carry their seed;
				// only the implicitly seeded package-level functions are
				// nondeterministic across runs.
				if fn.Signature().Recv() == nil && !randConstructors[fn.Name()] {
					pass.Reportf(n.Pos(), "calls %s.%s (global generator) in a deterministic scope; use a seeded *rand.Rand", fn.Pkg().Path(), fn.Name())
				}
			}
		}
		return true
	})
}

// isKeyCollectLoop recognizes the blessed map-range idiom: a body that
// does nothing but append the range key to a slice, which the caller
// then sorts. The value must not be consumed — consuming values in map
// order would leak the randomness even if the keys get sorted later.
func isKeyCollectLoop(info *types.Info, n *ast.RangeStmt) bool {
	key, ok := n.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	if n.Value != nil {
		if v, ok := n.Value.(*ast.Ident); !ok || v.Name != "_" {
			return false
		}
	}
	if len(n.Body.List) != 1 {
		return false
	}
	assign, ok := n.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Rhs) != 1 || len(assign.Lhs) != 1 {
		return false
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	arg, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
	if !ok {
		return false
	}
	keyObj := info.Defs[key]
	if keyObj == nil {
		keyObj = info.Uses[key]
	}
	argObj := info.Uses[arg]
	return keyObj != nil && keyObj == argObj
}
