// Package spanend enforces the trace-span lifecycle of internal/obs with
// a path-sensitive dataflow analysis: every span started with NewSpan,
// Child, Phase or Enter must be ended on every return path and on every explicit
// panic path, and a phase span must not still be open when its parent is
// explicitly ended (phase totals would attribute the child's tail to the
// wrong phase).
//
// Per tracked span variable the analysis runs a may-lattice {live, ended,
// deferred} over the function's CFG, with call-argument function literals
// spliced inline (package cfg). The obs contract shapes the transfer
// function:
//
//   - sp.End() ends the span; `defer sp.End()` (directly or inside a
//     deferred literal) covers every exit, panics included. End is
//     idempotent by contract, so double End is not a finding.
//   - a nil *Span is the disabled span, so on the nil edge of a
//     `sp == nil` / `sp != nil` check the obligation is discharged —
//     the `if sp := X.Child("e"); sp != nil { defer sp.End() }` idiom
//     verifies as written.
//   - passing a span to a call, storing it into a field or composite
//     literal, returning it, or handing it to a goroutine transfers
//     ownership: whoever holds the span now owns the End. Spans are
//     freely shared (unlike pooled buffers), so escapes are silent
//     discharges, not findings.
//
// Deliberate exceptions annotate `//lint:spanend-ok <reason>` at the span
// start; the reason is mandatory.
package spanend

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"

	"holistic/internal/analysis"
	"holistic/internal/analysis/cfg"
	"holistic/internal/analysis/dataflow"
)

// Analyzer is the spanend analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "spanend",
	Doc:  "reports obs trace spans not ended on every return/panic path and phase spans still open when their parent ends",
	Run:  run,
}

// obsPkgSuffix identifies the obs package by import-path suffix so the
// analyzer works on testdata modules too.
const obsPkgSuffix = "internal/obs"

// spanStarters are the callables that hand out a span the holder must End.
// An Accumulator is not one: it has no run of its own to end, only entries.
var spanStarters = map[string]bool{"NewSpan": true, "Child": true, "Phase": true, "Enter": true}

type state uint8

const (
	live     state = 1 << iota // started and not yet ended
	ended                      // ended (or known nil/disabled)
	deferred                   // a deferred End covers it at exit
)

type fact map[types.Object]state

// origin records where a tracked span was started and which tracked span
// it was started under (nil parent for roots and untracked receivers).
type origin struct {
	pos    token.Pos
	parent types.Object
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, g := range cfg.FileGraphs(file, pass.TypesInfo) {
			analyzeGraph(pass, g)
		}
	}
	pass.ReportBareDirectives(analysis.DirectiveSpanEndOK)
	return nil
}

type problem struct{ pass *analysis.Pass }

func (p problem) Entry() fact          { return nil }
func (p problem) Equal(a, b fact) bool { return maps.Equal(a, b) }

func (p problem) Join(a, b fact) fact {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := maps.Clone(a)
	for o, s := range b {
		out[o] |= s
	}
	return out
}

func set(f fact, o types.Object, s state) fact {
	if f[o] == s {
		return f
	}
	nf := make(fact, len(f)+1)
	maps.Copy(nf, f)
	nf[o] = s
	return nf
}

func del(f fact, o types.Object) fact {
	if _, ok := f[o]; !ok {
		return f
	}
	nf := maps.Clone(f)
	delete(nf, o)
	return nf
}

// Refine discharges a span's obligation on the edge where it is known
// nil: the nil *Span is the disabled span and needs no End.
func (p problem) Refine(f fact, e *cfg.Edge) fact {
	if e.Cond == nil || (e.Kind != cfg.True && e.Kind != cfg.False) {
		return f
	}
	bin, ok := ast.Unparen(e.Cond).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return f
	}
	var id *ast.Ident
	switch {
	case isNil(bin.Y):
		id, _ = ast.Unparen(bin.X).(*ast.Ident)
	case isNil(bin.X):
		id, _ = ast.Unparen(bin.Y).(*ast.Ident)
	default:
		return f
	}
	if id == nil {
		return f
	}
	obj := p.pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return f
	}
	s, tracked := f[obj]
	if !tracked {
		return f
	}
	nilEdge := (bin.Op == token.EQL) == (e.Kind == cfg.True)
	if nilEdge {
		return set(f, obj, s&^live|ended)
	}
	return f
}

func isNil(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

func (p problem) Transfer(f fact, n ast.Node) fact {
	switch n := n.(type) {
	case *ast.AssignStmt:
		return p.transferAssign(f, n)
	case *ast.DeferStmt:
		for _, obj := range endCallsDeep(p.pass, n) {
			if s, ok := f[obj]; ok {
				f = set(f, obj, s&^live|deferred)
			}
		}
		return f
	case *ast.GoStmt:
		// The goroutine owns the span now (worker spans are ended by the
		// worker body, analyzed as its own root).
		for obj := range referencedDeep(p.pass, f, n) {
			f = del(f, obj)
		}
		return f
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			if obj := trackedIdent(p.pass, f, res); obj != nil {
				f = del(f, obj)
			}
		}
		return f
	default:
		for _, obj := range endCallsShallow(p.pass, n) {
			if s, ok := f[obj]; ok {
				f = set(f, obj, s&^live|ended)
			}
		}
		// Passing a span to any call or embedding it in a composite
		// literal hands the End obligation to the receiver.
		for obj := range escapesShallow(p.pass, f, n) {
			f = del(f, obj)
		}
		return f
	}
}

func (p problem) transferAssign(f fact, n *ast.AssignStmt) fact {
	if len(n.Lhs) != len(n.Rhs) {
		return f
	}
	for i := range n.Lhs {
		rhs := ast.Unparen(n.Rhs[i])
		switch lhs := ast.Unparen(n.Lhs[i]).(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				continue
			}
			obj := p.pass.TypesInfo.ObjectOf(lhs)
			if obj == nil {
				continue
			}
			switch {
			case isSpanStart(p.pass, rhs):
				f = set(f, obj, live)
			case trackedIdent(p.pass, f, rhs) != nil:
				src := trackedIdent(p.pass, f, rhs)
				s := f[src]
				f = del(f, src)
				f = set(f, obj, s)
			default:
				if _, ok := f[obj]; ok {
					f = del(f, obj)
				}
			}
		default:
			// Field/element store: ownership escapes silently
			// (opt.trace = sp is the sanctioned hand-off idiom).
			if obj := trackedIdent(p.pass, f, rhs); obj != nil {
				f = del(f, obj)
			}
		}
	}
	return f
}

func analyzeGraph(pass *analysis.Pass, g *cfg.Graph) {
	origins := collectOrigins(pass, g)
	if len(origins) == 0 {
		return
	}
	p := problem{pass}
	in := dataflow.Solve[fact](g, p)

	report := func(pos token.Pos, format string, args ...any) {
		if _, ok := pass.Suppression(pos, analysis.DirectiveSpanEndOK); ok {
			return
		}
		pass.Reportf(pos, format, args...)
	}

	// Nesting: an explicit End on a parent while a tracked child started
	// under it is still live attributes the child's tail to the wrong
	// phase.
	dataflow.Walk[fact](g, p, in, func(_ *cfg.Block, f fact, n ast.Node) {
		if _, ok := n.(*ast.DeferStmt); ok {
			return // deferred parent Ends run after the children's explicit Ends
		}
		for _, parent := range endCallsShallow(pass, n) {
			for child, o := range origins {
				if o.parent != parent {
					continue
				}
				if s, ok := f[child]; ok && s&live != 0 && s&deferred == 0 {
					report(callPos(n), "span %s is still open when its parent %s ends; end the child first so phase totals nest", child.Name(), parent.Name())
				}
			}
		}
	})

	reported := map[types.Object]bool{}
	leak := func(exit *cfg.Block, format string) {
		exitFact, ok := in[exit]
		if !ok {
			return
		}
		for obj, s := range exitFact {
			if s&live != 0 && !reported[obj] {
				if o, ok := origins[obj]; ok {
					reported[obj] = true
					report(o.pos, format, obj.Name())
				}
			}
		}
	}
	leak(g.Exit, "span %s is not ended on every return path (call End on all exits, defer it, or annotate //lint:spanend-ok <reason>)")
	leak(g.PanicExit, "span %s is not ended on a panic path; defer its End so the trace survives aborts (//lint:spanend-ok <reason>)")
}

// collectOrigins maps every variable assigned from a span start to where
// it started and the tracked receiver it was started under.
func collectOrigins(pass *analysis.Pass, g *cfg.Graph) map[types.Object]origin {
	origins := map[types.Object]origin{}
	assigned := map[types.Object]bool{}
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				continue
			}
			for i := range as.Lhs {
				rhs := ast.Unparen(as.Rhs[i])
				if !isSpanStart(pass, rhs) {
					continue
				}
				id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := pass.TypesInfo.ObjectOf(id)
				if obj == nil {
					continue
				}
				assigned[obj] = true
				if _, seen := origins[obj]; !seen {
					origins[obj] = origin{pos: rhs.Pos(), parent: startReceiver(pass, rhs)}
				}
			}
		}
	}
	// Parents must themselves be tracked variables of this graph.
	for obj, o := range origins {
		if o.parent != nil && !assigned[o.parent] {
			o.parent = nil
			origins[obj] = o
		}
	}
	return origins
}

// startReceiver returns the object of the receiver variable of a
// Child/Phase call (`sp` in sp.Child("x")), or nil.
func startReceiver(pass *analysis.Pass, expr ast.Expr) types.Object {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.ObjectOf(id)
}

func trackedIdent(pass *analysis.Pass, f fact, expr ast.Expr) types.Object {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return nil
	}
	if _, ok := f[obj]; !ok {
		return nil
	}
	return obj
}

// isSpanStart reports whether expr calls obs.NewSpan or the Child/Phase
// methods of *obs.Span.
func isSpanStart(pass *analysis.Pass, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(fn.Pkg().Path(), obsPkgSuffix) && spanStarters[fn.Name()]
}

// endCallsShallow collects receivers of End() calls under n, skipping
// function literals.
func endCallsShallow(pass *analysis.Pass, n ast.Node) []types.Object {
	var out []types.Object
	cfg.InspectShallow(n, func(m ast.Node) bool {
		out = appendEndReceiver(pass, out, m)
		return true
	})
	return out
}

// endCallsDeep collects receivers of End() calls under n, descending into
// deferred literals too.
func endCallsDeep(pass *analysis.Pass, n ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(n, func(m ast.Node) bool {
		out = appendEndReceiver(pass, out, m)
		return true
	})
	return out
}

func appendEndReceiver(pass *analysis.Pass, out []types.Object, m ast.Node) []types.Object {
	call, ok := m.(*ast.CallExpr)
	if !ok {
		return out
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return out
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), obsPkgSuffix) {
		return out
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return out
	}
	if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
		out = append(out, obj)
	}
	return out
}

// referencedDeep finds tracked spans referenced anywhere under n,
// including inside goroutine literals.
func referencedDeep(pass *analysis.Pass, f fact, n ast.Node) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				if _, tracked := f[obj]; tracked {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// escapesShallow finds tracked spans passed as call arguments or placed
// into composite literals under n: ownership transfers, obligation
// discharged.
func escapesShallow(pass *analysis.Pass, f fact, n ast.Node) map[types.Object]bool {
	out := map[types.Object]bool{}
	cfg.InspectShallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			for _, arg := range m.Args {
				if obj := trackedIdent(pass, f, arg); obj != nil {
					out[obj] = true
				}
			}
		case *ast.CompositeLit:
			for _, elt := range m.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if obj := trackedIdent(pass, f, elt); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

func callPos(n ast.Node) token.Pos { return n.Pos() }
