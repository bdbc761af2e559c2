// Package parallelbody enforces the concurrency contract of
// internal/parallel: closures passed to parallel.For, parallel.ForEach and
// parallel.Run run concurrently on disjoint task ranges, so they must not
// write shared captured state ("body must be safe for concurrent
// invocation on disjoint ranges").
//
// The analyzer inspects every function literal handed to those entry
// points (directly, or through a local variable) and reports writes to
// variables captured from the enclosing scope that are not provably
// disjoint per task:
//
//   - plain assignment to a captured scalar (including `x = append(x, …)`),
//   - compound assignment and ++/-- on a captured variable (a non-atomic
//     read-modify-write),
//   - writes to a captured map (concurrent map writes fault at runtime),
//   - field writes on captured structs and writes through captured
//     pointers.
//
// Indexed writes into captured slices and arrays (`out[i] = v`) are
// allowed: tasks index disjoint ranges by construction, which is the whole
// point of the task decomposition (§5.2) — the analyzer enforces the
// sharing discipline, the race detector backs it up dynamically.
//
// Functions that relay their closure arguments to internal/parallel can be
// marked with a //lint:parallel-entry directive on their declaration;
// function literals passed to them are then analyzed the same way.
//
// Findings are suppressed with `//lint:parallel-safe <reason>` on the
// offending line, the line above it, or the line of (or above) the
// parallel call itself; the reason string is mandatory.
package parallelbody

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"holistic/internal/analysis"
)

// Analyzer is the parallelbody analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "parallelbody",
	Run:  run,
}

// parallelPkgSuffix identifies the parallel package by import-path suffix
// so the analyzer works both on this module and on testdata modules.
const parallelPkgSuffix = "internal/parallel"

// bodyArgs maps the parallel entry points to the argument positions of
// their task closures; -1 means "all trailing arguments" (parallel.Run is
// variadic over thunks). The context-aware variants shift the closure one
// position right.
var bodyArgs = map[string]int{
	"For": 2, "ForEach": 1, "Run": -1,
	"ForContext": 3, "ForEachContext": 2,
}

func run(pass *analysis.Pass) error {
	entries := parallelEntryDecls(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, body := range taskClosures(pass, call, entries) {
				checkBody(pass, call, body)
			}
			return true
		})
	}
	pass.ReportBareDirectives(analysis.DirectiveParallelSafe)
	return nil
}

// parallelEntryDecls collects the functions of this package whose
// declarations carry a //lint:parallel-entry directive.
func parallelEntryDecls(pass *analysis.Pass) map[types.Object]bool {
	entries := map[types.Object]bool{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if _, ok := pass.Suppression(fd.Pos(), analysis.DirectiveParallelEntry); !ok {
				continue
			}
			if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
				entries[obj] = true
			}
		}
	}
	return entries
}

// taskClosures returns the function literals that the call hands to a
// parallel entry point for concurrent invocation. Arguments that cannot be
// resolved to a literal in the enclosing file (named functions, method
// values, parameters) are skipped: their bodies are analyzed where they
// are defined, or not at all — the analyzer is deliberately first-order.
func taskClosures(pass *analysis.Pass, call *ast.CallExpr, entries map[types.Object]bool) []*ast.FuncLit {
	var argIdx int
	switch callee := calleeFunc(pass, call); {
	case callee == nil:
		return nil
	case callee.Pkg() != nil && strings.HasSuffix(callee.Pkg().Path(), parallelPkgSuffix):
		idx, ok := bodyArgs[callee.Name()]
		if !ok {
			return nil
		}
		argIdx = idx
	case entries[callee]:
		argIdx = -2 // every func-typed argument
	default:
		return nil
	}

	var lits []*ast.FuncLit
	for i, arg := range call.Args {
		switch {
		case argIdx >= 0 && i != argIdx:
			continue
		case argIdx == -2:
			if _, ok := pass.TypesInfo.TypeOf(arg).Underlying().(*types.Signature); !ok {
				continue
			}
		}
		if lit := resolveFuncLit(pass, arg); lit != nil {
			lits = append(lits, lit)
		}
	}
	return lits
}

// calleeFunc resolves the called function object, if it is a declared
// function or method.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// resolveFuncLit returns the function literal an argument denotes: either
// the literal itself, or the unique local `name := func(...){...}`
// definition the identifier refers to.
func resolveFuncLit(pass *analysis.Pass, arg ast.Expr) *ast.FuncLit {
	switch arg := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		return arg
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[arg]
		if obj == nil {
			return nil
		}
		var lit *ast.FuncLit
		count := 0
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != len(as.Rhs) {
					return true
				}
				for i, lhs := range as.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || pass.TypesInfo.ObjectOf(id) != obj {
						continue
					}
					if fl, ok := as.Rhs[i].(*ast.FuncLit); ok {
						lit = fl
						count++
					}
				}
				return true
			})
		}
		if count == 1 {
			return lit
		}
	}
	return nil
}

// checkBody reports unsynchronized writes to captured state inside one
// task closure.
func checkBody(pass *analysis.Pass, call *ast.CallExpr, lit *ast.FuncLit) {
	report := func(pos token.Pos, format string, args ...any) {
		if _, ok := pass.Suppression(pos, analysis.DirectiveParallelSafe); ok {
			return
		}
		// A directive on the parallel call itself covers the whole body.
		if _, ok := pass.Suppression(call.Pos(), analysis.DirectiveParallelSafe); ok {
			return
		}
		pass.Reportf(pos, format, args...)
	}
	captured := func(obj types.Object) bool {
		if v, ok := obj.(*types.Var); !ok || v.IsField() {
			return false
		}
		return obj.Pos() < lit.Pos() || obj.Pos() > lit.End()
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Lhs) == len(n.Rhs) {
					rhs = n.Rhs[i]
				}
				checkWrite(pass, report, captured, lhs, n.Tok, rhs)
			}
		case *ast.IncDecStmt:
			checkWrite(pass, report, captured, n.X, n.Tok, nil)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				if n.Key != nil {
					checkWrite(pass, report, captured, n.Key, n.Tok, nil)
				}
				if n.Value != nil {
					checkWrite(pass, report, captured, n.Value, n.Tok, nil)
				}
			}
		}
		return true
	})
}

// checkWrite classifies one write destination inside a task body and
// reports it when it targets captured, non-disjoint state.
func checkWrite(pass *analysis.Pass, report func(token.Pos, string, ...any), captured func(types.Object) bool, lhs ast.Expr, tok token.Token, rhs ast.Expr) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" || tok == token.DEFINE {
			return
		}
		obj := pass.TypesInfo.ObjectOf(lhs)
		if obj == nil || !captured(obj) {
			return
		}
		switch {
		case tok == token.INC || tok == token.DEC:
			report(lhs.Pos(), "non-atomic %s of captured variable %q in parallel body; use sync/atomic or make it task-local", incDecWord(tok), lhs.Name)
		case tok != token.ASSIGN:
			report(lhs.Pos(), "non-atomic compound update of captured variable %q in parallel body; use sync/atomic or a mutex", lhs.Name)
		case isAppendTo(pass, rhs, obj):
			report(lhs.Pos(), "append to captured slice %q in parallel body; concurrent appends race on len — preallocate and index by task", lhs.Name)
		default:
			report(lhs.Pos(), "assignment to captured variable %q in parallel body; tasks race on it — guard it or make it task-local", lhs.Name)
		}
	case *ast.IndexExpr:
		t := pass.TypesInfo.TypeOf(lhs.X)
		if t == nil {
			return
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return // indexed slice/array writes are disjoint by the task contract
		}
		if obj := rootObject(pass, lhs.X); obj != nil && captured(obj) {
			report(lhs.Pos(), "write to captured map %q in parallel body; concurrent map writes fault — use per-task maps and merge", obj.Name())
		}
	case *ast.SelectorExpr:
		if sel := pass.TypesInfo.Selections[lhs]; sel == nil || sel.Kind() != types.FieldVal {
			return
		}
		if obj := rootObject(pass, lhs.X); obj != nil && captured(obj) {
			report(lhs.Pos(), "write to field %q of captured %q in parallel body; tasks race on it — guard it or write via disjoint indices", lhs.Sel.Name, obj.Name())
		}
	case *ast.StarExpr:
		if obj := rootObject(pass, lhs.X); obj != nil && captured(obj) {
			report(lhs.Pos(), "write through captured pointer %q in parallel body; tasks race on the pointee", obj.Name())
		}
	}
}

// rootObject walks to the base identifier of a selector/index/deref chain
// and returns its object, or nil. Chains that pass through a slice or map
// index are cut: `xs[i].field = v` writes element i, which the task
// contract already makes disjoint.
func rootObject(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return pass.TypesInfo.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			return nil
		default:
			return nil
		}
	}
}

func isAppendTo(pass *analysis.Pass, rhs ast.Expr, obj types.Object) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if _, isBuiltin := pass.TypesInfo.ObjectOf(id).(*types.Builtin); !isBuiltin {
		return false
	}
	first, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && pass.TypesInfo.ObjectOf(first) == obj
}

func incDecWord(tok token.Token) string {
	if tok == token.INC {
		return "increment"
	}
	return "decrement"
}
