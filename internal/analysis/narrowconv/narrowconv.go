// Package narrowconv guards the 32-bit narrowing conversions in the batch
// kernels' SoA paths (internal/mst) and the operator plumbing above them
// (internal/core). The merge sort tree stores 32-bit elements whenever the
// payload domain fits (§5.1), so index and threshold values cross from int
// to int32/uint32 at many kernel boundaries; on a >2³¹-row dataset an
// unguarded conversion would wrap silently and return wrong counts rather
// than fail.
//
// The analyzer runs a must-dataflow over the function's CFG: a conversion
// int32(v)/uint32(v) from a wider integer type is safe only when, on
// every path reaching it, v is
//
//   - guarded: a dominating comparison against a constant bounds it
//     (the false edge of `v > math.MaxInt32`, the true edge of
//     `v <= math.MaxInt32`, a cond-less switch case edge — package cfg
//     lowers those to refinable if-chains); or
//   - narrow: assigned from a value that provably fits (a constant in
//     range, a widening of an at-most-32-bit value, a copy of a
//     guarded/narrow variable).
//
// A conversion whose operand or target is a type parameter is judged by the
// instantiation that could lose the most bits: the operand by the widest
// integer term of its type set, the target by the narrowest. So int32(v)
// with v K (K int32 | int64) is checked as a conversion from int64, and K(n)
// with n int as one to int32.
//
// Values are non-negative by domain (§5.1 preprocesses payloads into
// [0, n]), so only upper bounds are checked; a lower-bound analysis would
// add noise without catching a real wrap.
//
// In internal/mst the same discipline covers uint8: the merge-origin stripes
// store child-run indices in one byte per element, so a conversion
// uint8(v) from any wider integer is checked against the bound 255 with the
// same guard/narrow/funnel rules (the audited funnel there is mst.u8, sound
// because stripes are only built for fanouts of at most 256).
//
// Everything else must either go through an audited funnel helper whose
// declaration carries `//lint:narrowconv-entry <reason>` (the helper's
// body is exempt; the reason documents why the quantity fits — e.g.
// mst.Build rejects inputs of 2³¹ elements or more, so tree positions
// fit), or annotate the site with `//lint:narrowconv-ok <reason>`.
package narrowconv

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"maps"
	"math"
	"strings"

	"holistic/internal/analysis"
	"holistic/internal/analysis/cfg"
	"holistic/internal/analysis/dataflow"
)

// Analyzer is the narrowconv analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "narrowconv",
	Run:  run,
}

// pkgSuffixes scopes the analyzer to the kernel, operator and on-disk
// format packages.
var pkgSuffixes = []string{"internal/mst", "internal/core", "internal/segment"}

// bytePkgSuffixes scopes the uint8 check to the package that stores
// one-byte child indices (the merge-origin stripes).
var bytePkgSuffixes = []string{"internal/mst"}

// state is the per-variable must-fact: properties holding on every path.
type state uint8

const (
	guarded  state = 1 << iota // a dominating comparison bounds it by <= math.MaxInt32
	narrow                     // assigned from a value that provably fits 32 bits
	guarded8                   // a dominating comparison bounds it by <= math.MaxUint8
	narrow8                    // assigned from a value that provably fits 8 bits

	fits8  = guarded8 | narrow8
	fits32 = guarded | narrow | fits8 // a byte bound is a 32-bit bound too
)

type fact map[types.Object]state

func run(pass *analysis.Pass) error {
	if !hasAnySuffix(pass.Pkg.Path(), pkgSuffixes) {
		pass.ReportBareDirectives(analysis.DirectiveNarrowConvOK)
		pass.ReportBareDirectives(analysis.DirectiveNarrowConvEntry)
		return nil
	}
	for _, file := range pass.Files {
		for _, g := range cfg.FileGraphs(file, pass.TypesInfo) {
			if fd, ok := g.Func.(*ast.FuncDecl); ok {
				if _, exempt := pass.Suppression(fd.Pos(), analysis.DirectiveNarrowConvEntry); exempt {
					continue // audited funnel: the body is the guard
				}
			}
			analyzeGraph(pass, g)
		}
	}
	pass.ReportBareDirectives(analysis.DirectiveNarrowConvOK)
	pass.ReportBareDirectives(analysis.DirectiveNarrowConvEntry)
	return nil
}

type problem struct{ pass *analysis.Pass }

func (p problem) Entry() fact          { return nil }
func (p problem) Equal(a, b fact) bool { return maps.Equal(a, b) }

// Join intersects: a property must hold on every incoming path.
func (p problem) Join(a, b fact) fact {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := fact{}
	for o, sa := range a {
		if s := sa & b[o]; s != 0 {
			out[o] = s
		}
	}
	if len(out) == 0 {
		return nil
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

// Refine adds guard facts along comparison edges.
func (p problem) Refine(f fact, e *cfg.Edge) fact {
	if e.Cond == nil || (e.Kind != cfg.True && e.Kind != cfg.False) {
		return f
	}
	bin, ok := ast.Unparen(e.Cond).(*ast.BinaryExpr)
	if !ok {
		return f
	}
	// Normalize to ident OP constant.
	id, _ := ast.Unparen(bin.X).(*ast.Ident)
	cval, haveC := constVal(p.pass, bin.Y)
	op := bin.Op
	if id == nil || !haveC {
		if id, _ = ast.Unparen(bin.Y).(*ast.Ident); id == nil {
			return f
		}
		if cval, haveC = constVal(p.pass, bin.X); !haveC {
			return f
		}
		op = flip(op)
	}
	obj := p.pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return f
	}
	// Which comparison holds along this edge?
	if e.Kind == cfg.False {
		op = negate(op)
	}
	// Normalize v < c to v <= c-1; the edge then bounds v by cval.
	switch op {
	case token.LSS:
		cval = constant.BinaryOp(cval, token.SUB, constant.MakeInt64(1))
	case token.LEQ, token.EQL:
	default:
		return f
	}
	switch {
	case constant.Compare(cval, token.LEQ, constant.MakeInt64(math.MaxUint8)):
		return set(f, obj, f[obj]|guarded|guarded8)
	case constant.Compare(cval, token.LEQ, constant.MakeInt64(math.MaxInt32)):
		return set(f, obj, f[obj]|guarded)
	}
	return f
}

// flip mirrors a comparison when its operands swap sides.
func flip(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.LEQ:
		return token.GEQ
	case token.GTR:
		return token.LSS
	case token.GEQ:
		return token.LEQ
	}
	return op
}

// negate inverts a comparison for the false edge.
func negate(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GEQ
	case token.LEQ:
		return token.GTR
	case token.GTR:
		return token.LEQ
	case token.GEQ:
		return token.LSS
	case token.EQL:
		return token.NEQ
	case token.NEQ:
		return token.EQL
	}
	return op
}

func (p problem) Transfer(f fact, n ast.Node) fact {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
			// Compound update: the bound no longer holds.
			for _, lhs := range n.Lhs {
				if obj := identObj(p.pass, lhs); obj != nil {
					f = del(f, obj)
				}
			}
			return f
		}
		if len(n.Lhs) != len(n.Rhs) {
			for _, lhs := range n.Lhs {
				if obj := identObj(p.pass, lhs); obj != nil {
					f = del(f, obj)
				}
			}
			return f
		}
		for i := range n.Lhs {
			obj := identObj(p.pass, n.Lhs[i])
			if obj == nil {
				continue
			}
			if s := p.classify(f, n.Rhs[i]); s != 0 {
				f = set(f, obj, s)
			} else {
				f = del(f, obj)
			}
		}
		return f
	case *ast.IncDecStmt:
		if obj := identObj(p.pass, n.X); obj != nil {
			f = del(f, obj)
		}
		return f
	}
	return f
}

// classify reports the must-state an assignment from expr establishes.
func (p problem) classify(f fact, expr ast.Expr) state {
	expr = ast.Unparen(expr)
	if cval, ok := constVal(p.pass, expr); ok {
		switch {
		case inRange(cval, 0, math.MaxUint8):
			return narrow | narrow8
		case inRange(cval, math.MinInt32, math.MaxInt32):
			return narrow
		}
		return 0
	}
	switch e := expr.(type) {
	case *ast.Ident:
		if obj := p.pass.TypesInfo.ObjectOf(e); obj != nil {
			return f[obj]
		}
	case *ast.CallExpr:
		// A widening conversion like int(x16) of an at-most-32-bit
		// signed-compatible value stays narrow.
		if len(e.Args) != 1 {
			return 0
		}
		tv, ok := p.pass.TypesInfo.Types[e.Fun]
		if !ok || !tv.IsType() {
			return 0
		}
		if src, ok := intType(p.pass.TypesInfo.TypeOf(e.Args[0]), true); ok {
			switch src.Kind() {
			case types.Uint8:
				return narrow | narrow8
			case types.Int8, types.Int16, types.Int32, types.Uint16:
				return narrow
			}
		}
	}
	return 0
}

func analyzeGraph(pass *analysis.Pass, g *cfg.Graph) {
	p := problem{pass}
	in := dataflow.Solve[fact](g, p)
	dataflow.Walk[fact](g, p, in, func(_ *cfg.Block, f fact, n ast.Node) {
		cfg.InspectShallow(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkConversion(pass, f, call)
			return true
		})
	})
}

// checkConversion reports an int32/uint32 conversion from a wider integer —
// and, in the byte-scoped packages, a uint8 conversion from any wider
// integer — whose operand is not provably bounded.
func checkConversion(pass *analysis.Pass, f fact, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	dst, ok := intType(tv.Type, false)
	if !ok {
		return
	}
	operand := ast.Unparen(call.Args[0])
	src, ok := intType(pass.TypesInfo.TypeOf(operand), true)
	if !ok {
		return
	}
	// need is the set of facts any of which proves the operand fits dst;
	// lo and hi bound the constants that fit.
	var need state
	var lo, hi int64
	switch dst.Kind() {
	case types.Int32, types.Uint32:
		switch src.Kind() {
		case types.Int, types.Int64, types.Uint, types.Uint64:
		default:
			return // already at most 32 bits (or not an integer)
		}
		need, lo, hi = fits32, math.MinInt32, math.MaxInt32
	case types.Uint8:
		if !hasAnySuffix(pass.Pkg.Path(), bytePkgSuffixes) {
			return
		}
		switch src.Kind() {
		case types.Int, types.Int64, types.Uint, types.Uint64,
			types.Int32, types.Uint32, types.Int16, types.Uint16:
		default:
			return // already one byte (or not an integer)
		}
		need, lo, hi = fits8, 0, math.MaxUint8
	default:
		return
	}
	if cval, ok := constVal(pass, operand); ok && inRange(cval, lo, hi) {
		return
	}
	if id, ok := operand.(*ast.Ident); ok {
		if obj := pass.TypesInfo.ObjectOf(id); obj != nil && f[obj]&need != 0 {
			return // guarded or narrow on every path
		}
	}
	if _, ok := pass.Suppression(call.Pos(), analysis.DirectiveNarrowConvOK); ok {
		return
	}
	wrap := "2³¹"
	if dst.Kind() == types.Uint8 {
		wrap = "255"
	}
	pass.Reportf(call.Pos(), "unguarded narrowing conversion to %s: a >%s value would wrap silently; bound the value first, route it through an audited //lint:narrowconv-entry helper, or annotate //lint:narrowconv-ok <reason>", dst.Name(), wrap)
}

// intType is the basic type a conversion's operand or target is judged by:
// t's own, or for a type parameter the widest (widest) or narrowest integer
// term of its type set — the instantiation that could lose the most bits.
// It reports false for a type parameter without integer terms.
func intType(t types.Type, widest bool) (*types.Basic, bool) {
	tp, ok := t.(*types.TypeParam)
	if !ok {
		b, ok := t.Underlying().(*types.Basic)
		return b, ok
	}
	var pick *types.Basic
	for _, b := range intTerms(tp.Constraint(), nil) {
		if pick == nil || widest && intBits(b) > intBits(pick) || !widest && intBits(b) < intBits(pick) {
			pick = b
		}
	}
	return pick, pick != nil
}

// intTerms appends the integer types of constraint's type set terms to out,
// descending into embedded constraints.
func intTerms(constraint types.Type, out []*types.Basic) []*types.Basic {
	iface, ok := constraint.Underlying().(*types.Interface)
	if !ok {
		if b, ok := constraint.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			out = append(out, b)
		}
		return out
	}
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		switch e := iface.EmbeddedType(i).(type) {
		case *types.Union:
			for j := 0; j < e.Len(); j++ {
				out = intTerms(e.Term(j).Type(), out)
			}
		default:
			out = intTerms(e, out)
		}
	}
	return out
}

// intBits is the width of an integer kind; int, uint and uintptr count as
// 64 bits, the widest they can be.
func intBits(b *types.Basic) int {
	switch b.Kind() {
	case types.Int8, types.Uint8:
		return 8
	case types.Int16, types.Uint16:
		return 16
	case types.Int32, types.Uint32:
		return 32
	}
	return 64
}

func identObj(pass *analysis.Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return pass.TypesInfo.ObjectOf(id)
}

func constVal(pass *analysis.Pass, e ast.Expr) (constant.Value, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return nil, false
	}
	return tv.Value, true
}

func inRange(v constant.Value, lo, hi int64) bool {
	return constant.Compare(v, token.GEQ, constant.MakeInt64(lo)) &&
		constant.Compare(v, token.LEQ, constant.MakeInt64(hi))
}

func hasAnySuffix(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if strings.HasSuffix(path, s) {
			return true
		}
	}
	return false
}
