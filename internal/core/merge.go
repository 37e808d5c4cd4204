package core

import (
	"fmt"
	"strconv"
)

// mergeViews consolidates the raw directional views (paper §3.4, "Merge
// Views" layer). Views with the same edge, direction and group-by attributes
// merge into one view holding the union of their aggregates; structurally
// identical aggregates are kept once. In our representation this realizes all
// three merge cases of the paper at once:
//
//   - identical views for different aggregates collapse via aggregate
//     signature deduplication (case "same group-by, body and aggregates"),
//   - views with the same group-by and body but different aggregates
//     concatenate aggregate lists (case 2),
//   - views with the same group-by but different bodies become one view whose
//     aggregates reference different inputs — sound because all bodies are
//     joins of the same subtree, hence have identical group-by tuple sets
//     (case 1, the paper's W_T example).
//
// Raw views must be in topological order (inputs before consumers). Output
// views are rewritten in place to reference the merged views; they are not
// merged with each other (results are delivered per query) but are appended
// to the returned view list with fresh IDs.
func mergeViews(raw []*View, outputs []*View) []*View {
	type mergeTarget struct {
		view   *View
		sigIdx map[string]int
	}
	byKey := make(map[string]*mergeTarget)
	var key []byte // From>To|GroupBy
	var merged []*View

	viewMap := make([]int, len(raw))  // raw ID → merged ID
	aggMap := make([][]int, len(raw)) // raw ID → agg index → merged agg index
	remap := func(pa ProdAgg) ProdAgg {
		ins := make([]InputRef, len(pa.Inputs))
		for i, in := range pa.Inputs {
			ins[i] = InputRef{View: viewMap[in.View], Agg: aggMap[in.View][in.Agg]}
		}
		return ProdAgg{Factors: pa.Factors, Inputs: ins}
	}

	for _, v := range raw {
		key = strconv.AppendInt(key[:0], int64(v.From), 10)
		key = strconv.AppendInt(append(key, '>'), int64(v.To), 10)
		key = appendGroupBySig(append(key, '|'), v.GroupBy)
		tgt, ok := byKey[string(key)]
		if !ok {
			nv := &View{
				ID:      len(merged),
				From:    v.From,
				To:      v.To,
				GroupBy: v.GroupBy,
				Query:   -1,
			}
			merged = append(merged, nv)
			tgt = &mergeTarget{view: nv, sigIdx: make(map[string]int)}
			byKey[string(key)] = tgt
		}
		viewMap[v.ID] = tgt.view.ID
		aggMap[v.ID] = make([]int, len(v.Aggs))
		for ai, pa := range v.Aggs {
			aggMap[v.ID][ai] = addAgg(tgt.view, tgt.sigIdx, remap(pa))
		}
	}

	// Internal views expose one column per aggregate.
	for _, v := range merged {
		v.Cols = make([]OutputCol, len(v.Aggs))
		for i := range v.Aggs {
			v.Cols[i] = OutputCol{
				Name:  fmt.Sprintf("a%d", i),
				Aggs:  []int{i},
				Coefs: []float64{1},
			}
		}
	}

	// Rewrite outputs against merged IDs and append them.
	for _, out := range outputs {
		out.ID = len(merged)
		for ai := range out.Aggs {
			out.Aggs[ai] = remap(out.Aggs[ai])
		}
		merged = append(merged, out)
	}
	return merged
}
