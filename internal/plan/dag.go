package plan

import (
	"fmt"
	"strconv"
	"strings"

	"holistic/internal/core"
	"holistic/internal/frame"
)

// structureClass describes the index structure one function's evaluation
// builds per partition, mirroring the structure
// tags of core's MST evaluation paths: two functions with the same class
// key inside one sort group fetch the same cached structure, so the DAG
// gives them one preprocess node and one tree node.
type structureClass struct {
	// key identifies the structure within a sort group; empty means the
	// function builds no per-partition index (frame-size arithmetic).
	key string
	// shared reports whether the structure goes through the request cache;
	// unshared structures (plain-aggregate segment trees) get per-function
	// nodes.
	shared bool
	// preLabel and treeLabel describe the preprocessing arrays and the tree
	// (either may be empty).
	preLabel, treeLabel string
}

// classOf mirrors core's evaluation dispatch and cache-key tags
// (eval_mst.go); keep the two in sync when evaluation paths change.
func classOf(f *core.FuncSpec, orderBy []core.SortKey) structureClass {
	ordSig := func() string {
		keys := f.OrderBy
		if len(keys) == 0 {
			keys = orderBy
		}
		var b strings.Builder
		writeOrder(&b, keys)
		return b.String()
	}
	switch f.Name {
	case core.CountStar, core.Count:
		return structureClass{}
	case core.Sum, core.Avg, core.Min, core.Max:
		return structureClass{
			key:       "segtree|" + f.Output,
			treeLabel: "segment tree over kept values (per function)",
		}
	case core.CountDistinct:
		return structureClass{
			key:       "distinct-count|" + strconv.Quote(f.Arg) + "|" + strconv.Quote(f.Filter),
			shared:    true,
			preLabel:  "prevIdcs occurrence links (Alg. 1) over " + f.Arg,
			treeLabel: "merge sort tree over prevIdcs(" + f.Arg + ")",
		}
	case core.SumDistinct, core.AvgDistinct:
		return structureClass{
			key:       "distinct-agg|" + f.Name.String() + "|" + strconv.Quote(f.Arg) + "|" + strconv.Quote(f.Filter),
			shared:    true,
			preLabel:  "prevIdcs occurrence links (Alg. 1) over " + f.Arg,
			treeLabel: "annotated merge sort tree over prevIdcs(" + f.Arg + ") (§4.3)",
		}
	case core.Rank, core.PercentRank, core.CumeDist:
		return structureClass{
			key:       "rank-dense|" + ordSig() + "|" + strconv.Quote(f.Filter),
			shared:    true,
			preLabel:  "dense rank keys (Fig. 8)",
			treeLabel: "merge sort tree over rank keys",
		}
	case core.RowNumber, core.Ntile:
		return structureClass{
			key:       "rank-unique|" + ordSig() + "|" + strconv.Quote(f.Filter),
			shared:    true,
			preLabel:  "position-disambiguated rank keys",
			treeLabel: "merge sort tree over rank keys",
		}
	case core.DenseRank:
		return structureClass{
			key:       "dense|" + ordSig() + "|" + strconv.Quote(f.Filter),
			shared:    true,
			preLabel:  "dense ranks + occurrence links",
			treeLabel: "range tree (§4.4, O(n log² n))",
		}
	case core.PercentileDisc, core.PercentileCont, core.NthValue, core.FirstValue, core.LastValue:
		drop := ""
		switch f.Name {
		case core.PercentileDisc, core.PercentileCont:
			drop = f.OrderBy[0].Column
		default:
			if f.IgnoreNulls {
				drop = f.Arg
			}
		}
		return structureClass{
			key:       "select|" + ordSig() + "|" + strconv.Quote(drop) + "|" + strconv.Quote(f.Filter),
			shared:    true,
			preLabel:  "permutation array (Fig. 6)",
			treeLabel: "merge sort tree over the permutation",
		}
	case core.Lead, core.Lag:
		drop := ""
		if f.IgnoreNulls {
			drop = f.Arg
		}
		return structureClass{
			key:       "leadlag|" + ordSig() + "|" + strconv.Quote(drop) + "|" + strconv.Quote(f.Filter),
			shared:    true,
			preLabel:  "insertion row numbers + permutation",
			treeLabel: "merge sort tree over the permutation",
		}
	}
	return structureClass{}
}

// buildDAG constructs the plan's node list and sharing stats from the
// normalized groups.
func (p *Plan) buildDAG() {
	var nodes []Node
	st := Stats{}
	for gi, g := range p.groups {
		groupFuncs := func() []string {
			var names []string
			for _, w := range g.windows {
				for i := range w.funcs {
					names = append(names, w.funcs[i].Output)
				}
			}
			return names
		}()

		sortID := fmt.Sprintf("sort%d", gi)
		nodes = append(nodes, Node{
			ID:       sortID,
			Kind:     "sort",
			Label:    "parallel sort by partition (" + colsText(g.partitionBy) + "), order (" + orderText(g.orderBy) + ")",
			SharedBy: groupFuncs,
		})
		partID := fmt.Sprintf("part%d", gi)
		nodes = append(nodes, Node{
			ID:       partID,
			Kind:     "partitions",
			Label:    "partition boundaries",
			Inputs:   []string{sortID},
			SharedBy: groupFuncs,
		})
		st.SortsShared += len(g.windows) - 1
		st.PreprocessShared += len(g.windows) - 1

		// One preprocess+tree node pair per structure class, in first-
		// consumer order; probes hang off their class's tree (or straight
		// off the partitions for index-free functions).
		type classNodes struct {
			preIdx, treeIdx int // indices into nodes; -1 = absent
		}
		classes := map[string]*classNodes{}
		classSeq := 0
		for _, w := range g.windows {
			for i := range w.funcs {
				f := &w.funcs[i]
				cls := classOf(f, w.orderBy)
				probeInput := partID
				if cls.key != "" {
					cn, ok := classes[cls.key]
					if !ok {
						cn = &classNodes{preIdx: -1, treeIdx: -1}
						inputs := []string{partID}
						if cls.preLabel != "" {
							preID := fmt.Sprintf("pre%d_%d", gi, classSeq)
							nodes = append(nodes, Node{ID: preID, Kind: "preprocess", Label: cls.preLabel, Inputs: []string{partID}})
							cn.preIdx = len(nodes) - 1
							inputs = []string{preID}
						}
						if cls.treeLabel != "" {
							treeID := fmt.Sprintf("tree%d_%d", gi, classSeq)
							nodes = append(nodes, Node{ID: treeID, Kind: "tree", Label: cls.treeLabel, Inputs: inputs})
							cn.treeIdx = len(nodes) - 1
						}
						classes[cls.key] = cn
						classSeq++
					} else if cls.shared {
						if cn.treeIdx >= 0 {
							st.TreesShared++
						}
						if cn.preIdx >= 0 {
							st.PreprocessShared++
						}
					}
					if cn.preIdx >= 0 {
						nodes[cn.preIdx].SharedBy = append(nodes[cn.preIdx].SharedBy, f.Output)
					}
					if cn.treeIdx >= 0 {
						nodes[cn.treeIdx].SharedBy = append(nodes[cn.treeIdx].SharedBy, f.Output)
						probeInput = nodes[cn.treeIdx].ID
					} else if cn.preIdx >= 0 {
						probeInput = nodes[cn.preIdx].ID
					}
				}
				nodes = append(nodes, Node{
					ID:       "probe_" + f.Output,
					Kind:     "probe",
					Label:    f.Name.String() + " → " + f.Output + ": " + frameLabel(effectiveFrame(f, w.orderBy)),
					Inputs:   []string{probeInput},
					SharedBy: []string{f.Output},
				})
			}
		}
	}
	st.Operators = len(nodes)
	p.Nodes = nodes
	p.Stats = st
}

func colsText(cols []string) string {
	if len(cols) == 0 {
		return "none"
	}
	return strings.Join(cols, ", ")
}

func orderText(keys []core.SortKey) string {
	if len(keys) == 0 {
		return "none"
	}
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k.Column
		if k.Desc {
			parts[i] += " desc"
		}
		if k.NullsSmallest {
			parts[i] += " nulls-small"
		}
	}
	return strings.Join(parts, ", ")
}

// frameLabel renders a resolved frame specification.
func frameLabel(s frame.Spec) string {
	text := strings.ToLower(s.Mode.String()) + " " +
		strings.ToLower(boundText(s.Start)) + " .. " + strings.ToLower(boundText(s.End))
	switch s.Exclude {
	case frame.ExcludeCurrentRow:
		text += " exclude current row"
	case frame.ExcludeGroup:
		text += " exclude group"
	case frame.ExcludeTies:
		text += " exclude ties"
	}
	return text
}

func boundText(b frame.Bound) string {
	switch b.Type {
	case frame.Preceding, frame.Following:
		if b.OffsetFn != nil {
			return "expr " + strings.ToLower(b.Type.String())
		}
		return fmt.Sprintf("%d %s", b.Offset, strings.ToLower(b.Type.String()))
	default:
		return strings.ToLower(b.Type.String())
	}
}
