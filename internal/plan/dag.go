package plan

import (
	"fmt"
	"strings"

	"holistic/internal/core"
	"holistic/internal/frame"
)

// buildDAG constructs the plan's node list and sharing stats from the
// normalized groups. Within a sort group, functions declaring one core
// structure identity (core.StructureOf) share one preprocess node and one
// tree node, so TreesShared counts exactly the builds the structure cache
// saves — with two understatements, both where core's width class depends on
// what the plan cannot see. In a partition of at most mst.LeafRows rows every
// structure is leaf-only, so functions the DAG gives different width classes
// still share it there; and a bounded COUNT(DISTINCT) frame wider than
// mst.LeafRows is keyed by its row bound, because whether it slides turns on
// the probe chunk size, so two such frames of different widths count as two
// trees even where both slide. kindOf resolves argument kinds (nil: treat
// them as INT64, whose width classes split the most).
func (p *Plan) buildDAG(kindOf KindResolver) {
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

		// One preprocess+tree node pair per structure, in first-consumer
		// order; probes hang off their structure's tree (or straight off
		// the partitions for index-free functions).
		type structureNodes struct {
			preIdx, treeIdx int // indices into nodes; -1 = absent
		}
		structures := map[string]*structureNodes{}
		seq := 0
		for _, w := range g.windows {
			for i := range w.funcs {
				f := &w.funcs[i]
				argKind := core.Int64
				if kindOf != nil {
					if k, ok := kindOf(f.Arg); ok {
						argKind = k
					}
				}
				s := core.StructureOf(f, w.orderBy, effectiveFrame(f, w.orderBy), argKind)
				probeInput := partID
				if s.Tag != "" {
					key := s.String()
					if !s.Shared() {
						key += "|" + f.Output // built per function
					}
					sn, ok := structures[key]
					if !ok {
						sn = &structureNodes{preIdx: -1, treeIdx: -1}
						pre, tree := s.Labels()
						inputs := []string{partID}
						if pre != "" {
							preID := fmt.Sprintf("pre%d_%d", gi, seq)
							nodes = append(nodes, Node{ID: preID, Kind: "preprocess", Label: pre, Inputs: []string{partID}})
							sn.preIdx = len(nodes) - 1
							inputs = []string{preID}
						}
						if tree != "" {
							treeID := fmt.Sprintf("tree%d_%d", gi, seq)
							nodes = append(nodes, Node{ID: treeID, Kind: "tree", Label: tree, Inputs: inputs})
							sn.treeIdx = len(nodes) - 1
						}
						structures[key] = sn
						seq++
					} else {
						if sn.treeIdx >= 0 {
							st.TreesShared++
						}
						if sn.preIdx >= 0 {
							st.PreprocessShared++
						}
					}
					if sn.preIdx >= 0 {
						nodes[sn.preIdx].SharedBy = append(nodes[sn.preIdx].SharedBy, f.Output)
					}
					if sn.treeIdx >= 0 {
						nodes[sn.treeIdx].SharedBy = append(nodes[sn.treeIdx].SharedBy, f.Output)
						probeInput = nodes[sn.treeIdx].ID
					} else if sn.preIdx >= 0 {
						probeInput = nodes[sn.preIdx].ID
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
