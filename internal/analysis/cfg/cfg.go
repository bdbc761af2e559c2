// Package cfg builds intraprocedural control-flow graphs over go/ast for
// the dataflow-powered analyzers (poollifecycle, narrowconv).
//
// A Graph has one basic block per straight-line statement run and explicit
// edges for branches, loops, labeled break/continue, goto, switch/select
// dispatch, return and panic. Edges out of a condition carry the condition
// expression and a True/False kind, so dataflow clients can refine facts
// along branch outcomes (e.g. "on the false edge of v > math.MaxInt32, v
// fits in an int32"). Cond-less switch statements are lowered to if-chains
// so their case edges refine the same way.
//
// Function literals that are passed directly as call arguments — the
// obs.(*Span).Timed(name, func(){...}) shape, closure bodies handed to
// helpers that invoke them synchronously — are spliced inline exactly
// once: the literal's body becomes part of the enclosing graph right after
// the call node, with returns inside the literal targeting a literal-local
// join block. Literals launched by go statements, registered by defer, or
// bound to variables are not spliced; FileGraphs returns them as roots of
// their own. The splice is a deliberate over-approximation (the callee may
// invoke the closure zero or many times), which errs on the side of
// seeing the closure's assignments — the direction the lifecycle
// analyzers need.
package cfg

import (
	"go/ast"
	"go/token"
	"go/types"
)

// EdgeKind classifies a control-flow edge.
type EdgeKind uint8

const (
	// Next is an unconditional transfer.
	Next EdgeKind = iota
	// True is the taken edge of a condition (Cond holds).
	True
	// False is the fall-through edge of a condition (Cond fails).
	False
)

func (k EdgeKind) String() string {
	switch k {
	case True:
		return "true"
	case False:
		return "false"
	}
	return "next"
}

// Edge is one control-flow edge. Cond is the branch condition for True and
// False edges when the construct exposes one (if conditions, for
// conditions, cond-less switch cases); it is nil for loop-iteration edges
// of range statements and for multi-expression switch cases.
type Edge struct {
	From, To *Block
	Kind     EdgeKind
	Cond     ast.Expr
}

// Block is one basic block. Nodes are the statements and condition
// expressions executed in order; composite statements (if, for, switch)
// are decomposed into their parts, so Nodes only ever holds simple
// statements and expressions.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Edge
	Preds []*Edge
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Func is the *ast.FuncDecl or *ast.FuncLit the graph was built for
	// (set by FileGraphs; nil for graphs built directly with New).
	Func ast.Node
	// Blocks lists every block, Entry first. Blocks unreachable in the
	// source (code after return/panic) stay in the list with no
	// predecessors; solvers skip them.
	Blocks []*Block
	// Entry is the block control enters at.
	Entry *Block
	// Exit is the block every return path and the fall-off-the-end path
	// reach. It has no nodes.
	Exit *Block
	// PanicExit is the block explicit panic(...) statements jump to. It
	// has no nodes. Implicit runtime panics are not modelled.
	PanicExit *Block
	// Spliced records the function literals whose bodies were inlined
	// into this graph; FileGraphs uses it to avoid re-analyzing them as
	// separate roots.
	Spliced map[*ast.FuncLit]bool
}

// New builds the control-flow graph of one function body. info may be nil;
// when present it is used to tell the panic builtin from a shadowing
// declaration.
func New(body *ast.BlockStmt, info *types.Info) *Graph {
	g := &Graph{Spliced: map[*ast.FuncLit]bool{}}
	b := &builder{g: g, info: info, labels: map[string]*Block{}}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	g.PanicExit = b.newBlock()
	b.cur = g.Entry
	b.stmt(body)
	b.edge(b.cur, g.Exit, Next, nil)
	return g
}

// FileGraphs builds one graph per function in the file: every declared
// function with a body, plus every function literal that was not spliced
// into an enclosing graph (goroutine bodies, deferred closures, literals
// bound to variables). Graphs come back in source order with Func set.
func FileGraphs(file *ast.File, info *types.Info) []*Graph {
	var graphs []*Graph
	spliced := map[*ast.FuncLit]bool{}
	build := func(fn ast.Node, body *ast.BlockStmt) {
		g := New(body, info)
		g.Func = fn
		for fl := range g.Spliced {
			spliced[fl] = true
		}
		graphs = append(graphs, g)
	}
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			build(fd, fd.Body)
		}
	}
	// Literals visit outer-before-inner (ast.Inspect is pre-order), so by
	// the time an inner literal is reached, building its unspliced outer
	// literal has already recorded whether it was spliced there.
	var lits []*ast.FuncLit
	ast.Inspect(file, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, fl)
		}
		return true
	})
	for _, fl := range lits {
		if !spliced[fl] {
			build(fl, fl.Body)
		}
	}
	return graphs
}

// InspectShallow walks the AST below n in source order like ast.Inspect,
// but does not descend into function literals: their statements belong to
// other graphs (or were spliced as separate nodes), so a shallow walk is
// what per-node transfer functions want.
func InspectShallow(n ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return visit(m)
	})
}

// loopTarget is one enclosing breakable/continuable construct.
type loopTarget struct {
	label string
	block *Block
}

type builder struct {
	g    *Graph
	info *types.Info
	cur  *Block

	breaks    []loopTarget // loops, switches, selects
	continues []loopTarget // loops only
	labels    map[string]*Block
	litExit   []*Block // return targets of spliced literals, innermost last

	// pendingLabel is the label of the immediately-enclosing labeled
	// statement, consumed by the next loop/switch/select.
	pendingLabel string
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block, kind EdgeKind, cond ast.Expr) {
	e := &Edge{From: from, To: to, Kind: kind, Cond: cond}
	from.Succs = append(from.Succs, e)
	to.Preds = append(to.Preds, e)
}

// takeLabel consumes the pending label for the construct being built.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// labelBlock returns the goto/label target block for name, creating it on
// first reference (gotos may jump forward).
func (b *builder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

func (b *builder) findTarget(stack []loopTarget, label string) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

// returnTarget is where return statements jump: the innermost spliced
// literal's local exit, or the function exit.
func (b *builder) returnTarget() *Block {
	if n := len(b.litExit); n > 0 {
		return b.litExit[n-1]
	}
	return b.g.Exit
}

// leaf appends a simple statement or expression to the current block and,
// when splice is set, inlines the bodies of function literals the node
// passes directly as call arguments.
func (b *builder) leaf(n ast.Node, splice bool) {
	b.cur.Nodes = append(b.cur.Nodes, n)
	if !splice {
		return
	}
	for _, fl := range directCallArgLits(n) {
		b.spliceLit(fl)
	}
}

// spliceLit inlines one literal's body after the current block. Returns
// inside the literal target a literal-local join; break/continue/label
// scopes restart (a literal cannot branch to enclosing constructs).
func (b *builder) spliceLit(fl *ast.FuncLit) {
	b.g.Spliced[fl] = true
	join := b.newBlock()
	savedBreaks, savedContinues := b.breaks, b.continues
	savedLabels, savedPending := b.labels, b.pendingLabel
	b.breaks, b.continues, b.labels, b.pendingLabel = nil, nil, map[string]*Block{}, ""
	b.litExit = append(b.litExit, join)

	entry := b.newBlock()
	b.edge(b.cur, entry, Next, nil)
	b.cur = entry
	b.stmt(fl.Body)
	b.edge(b.cur, join, Next, nil)

	b.litExit = b.litExit[:len(b.litExit)-1]
	b.breaks, b.continues = savedBreaks, savedContinues
	b.labels, b.pendingLabel = savedLabels, savedPending
	b.cur = join
}

// directCallArgLits collects function literals under n that appear
// directly as call arguments, in source order, without descending into
// literals already collected (their nested call-arg literals splice when
// their own body is built).
func directCallArgLits(n ast.Node) []*ast.FuncLit {
	var lits []*ast.FuncLit
	marked := map[*ast.FuncLit]bool{}
	ast.Inspect(n, func(m ast.Node) bool {
		if fl, ok := m.(*ast.FuncLit); ok {
			return !marked[fl] // don't look inside literals being spliced
		}
		if call, ok := m.(*ast.CallExpr); ok {
			for _, arg := range call.Args {
				if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok && !marked[fl] {
					marked[fl] = true
					lits = append(lits, fl)
				}
			}
		}
		return true
	})
	return lits
}

// isPanicCall reports whether s is a call to the panic builtin.
func (b *builder) isPanicCall(s *ast.ExprStmt) bool {
	call, ok := ast.Unparen(s.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	if b.info != nil {
		_, isBuiltin := b.info.Uses[id].(*types.Builtin)
		return isBuiltin
	}
	return true
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}
	case *ast.IfStmt:
		b.stmt(s.Init)
		b.leaf(s.Cond, false)
		header := b.cur
		then := b.newBlock()
		join := b.newBlock()
		b.edge(header, then, True, s.Cond)
		b.cur = then
		b.stmt(s.Body)
		b.edge(b.cur, join, Next, nil)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(header, els, False, s.Cond)
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, join, Next, nil)
		} else {
			b.edge(header, join, False, s.Cond)
		}
		b.cur = join
	case *ast.ForStmt:
		label := b.takeLabel()
		b.stmt(s.Init)
		header := b.newBlock()
		b.edge(b.cur, header, Next, nil)
		b.cur = header
		body := b.newBlock()
		exit := b.newBlock()
		post := b.newBlock() // continue target
		if s.Cond != nil {
			b.leaf(s.Cond, false)
			b.edge(b.cur, body, True, s.Cond)
			b.edge(b.cur, exit, False, s.Cond)
		} else {
			b.edge(b.cur, body, Next, nil) // exit only via break/return
		}
		b.breaks = append(b.breaks, loopTarget{label, exit})
		b.continues = append(b.continues, loopTarget{label, post})
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, post, Next, nil)
		b.cur = post
		b.stmt(s.Post)
		b.edge(b.cur, header, Next, nil)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.cur = exit
	case *ast.RangeStmt:
		label := b.takeLabel()
		header := b.newBlock()
		b.edge(b.cur, header, Next, nil)
		b.cur = header
		if s.X != nil {
			b.leaf(s.X, false)
		}
		body := b.newBlock()
		exit := b.newBlock()
		b.edge(header, body, True, nil)
		b.edge(header, exit, False, nil)
		b.breaks = append(b.breaks, loopTarget{label, exit})
		b.continues = append(b.continues, loopTarget{label, header})
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, header, Next, nil)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.cur = exit
	case *ast.SwitchStmt:
		label := b.takeLabel()
		b.stmt(s.Init)
		if s.Tag != nil {
			b.leaf(s.Tag, false)
		}
		b.switchClauses(label, s.Body, s.Tag == nil)
	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		b.stmt(s.Init)
		b.leaf(s.Assign, false)
		b.switchClauses(label, s.Body, false)
	case *ast.SelectStmt:
		label := b.takeLabel()
		exit := b.newBlock()
		header := b.cur
		b.breaks = append(b.breaks, loopTarget{label, exit})
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			body := b.newBlock()
			b.edge(header, body, Next, nil)
			b.cur = body
			if cc.Comm != nil {
				b.leaf(cc.Comm, true)
			}
			for _, st := range cc.Body {
				b.stmt(st)
			}
			b.edge(b.cur, exit, Next, nil)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.cur = exit
	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.edge(b.cur, lb, Next, nil)
		b.cur = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.BranchStmt:
		b.leaf(s, false)
		switch s.Tok {
		case token.BREAK:
			if t := b.findTarget(b.breaks, labelName(s.Label)); t != nil {
				b.edge(b.cur, t, Next, nil)
			}
			b.cur = b.newBlock()
		case token.CONTINUE:
			if t := b.findTarget(b.continues, labelName(s.Label)); t != nil {
				b.edge(b.cur, t, Next, nil)
			}
			b.cur = b.newBlock()
		case token.GOTO:
			b.edge(b.cur, b.labelBlock(s.Label.Name), Next, nil)
			b.cur = b.newBlock()
		case token.FALLTHROUGH:
			// switchClauses wires the edge to the next clause body.
		}
	case *ast.ReturnStmt:
		b.leaf(s, true)
		b.edge(b.cur, b.returnTarget(), Next, nil)
		b.cur = b.newBlock()
	case *ast.ExprStmt:
		if b.isPanicCall(s) {
			b.leaf(s, false)
			b.edge(b.cur, b.g.PanicExit, Next, nil)
			b.cur = b.newBlock()
			return
		}
		b.leaf(s, true)
	case *ast.GoStmt, *ast.DeferStmt:
		// The launched/registered literal is not spliced: it runs at
		// another time. Analyzers inspect the node itself (e.g. a
		// deferred put discharges a pool obligation).
		b.leaf(s, false)
	default:
		// Assign, IncDec, Send, Decl, Empty: plain nodes.
		b.leaf(s, true)
	}
}

// switchClauses lowers a switch body. When refine is set (cond-less
// switch), single-expression cases become an if-chain whose True/False
// edges carry the case expression, so must-facts ("the default clause only
// runs when tv <= math.MaxInt32 failed to match") refine exactly like
// written-out ifs.
func (b *builder) switchClauses(label string, body *ast.BlockStmt, refine bool) {
	exit := b.newBlock()
	b.breaks = append(b.breaks, loopTarget{label, exit})

	clauses := make([]*ast.CaseClause, 0, len(body.List))
	for _, cl := range body.List {
		clauses = append(clauses, cl.(*ast.CaseClause))
	}
	bodies := make([]*Block, len(clauses))
	for i := range clauses {
		bodies[i] = b.newBlock()
	}

	chain := b.cur
	defaultIdx := -1
	for i, cc := range clauses {
		if len(cc.List) == 0 {
			defaultIdx = i
			continue
		}
		if refine && len(cc.List) == 1 {
			cond := cc.List[0]
			chain.Nodes = append(chain.Nodes, cond)
			b.edge(chain, bodies[i], True, cond)
			next := b.newBlock()
			b.edge(chain, next, False, cond)
			chain = next
			continue
		}
		for _, e := range cc.List {
			chain.Nodes = append(chain.Nodes, e)
		}
		b.edge(chain, bodies[i], Next, nil)
	}
	if defaultIdx >= 0 {
		b.edge(chain, bodies[defaultIdx], Next, nil)
	} else {
		b.edge(chain, exit, Next, nil)
	}

	for i, cc := range clauses {
		b.cur = bodies[i]
		for _, st := range cc.Body {
			b.stmt(st)
		}
		if i+1 < len(clauses) && endsInFallthrough(cc.Body) {
			b.edge(b.cur, bodies[i+1], Next, nil)
		} else {
			b.edge(b.cur, exit, Next, nil)
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = exit
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func labelName(id *ast.Ident) string {
	if id == nil {
		return ""
	}
	return id.Name
}
