package main

import (
	lmfao "repro"
	"repro/internal/data"
	"repro/internal/ivm"
)

// The probes below run only in a traced run, after the timed phase and on
// the same data: direct calls into single layers that the workload reaches
// only through a session, timed from outside.

// probeSort times a sorted copy of the fact relation on its discrete
// attributes, the order the engine's trie scan needs.
func probeSort(r *run, fact *lmfao.Relation) error {
	var order []lmfao.AttrID
	for i, a := range fact.Attrs {
		if fact.Cols[i].IsInt() {
			order = append(order, a)
		}
	}
	for i := 0; i < 3; i++ {
		tm := r.top().begin("data.SortedCopy")
		_, err := fact.SortedCopy(order)
		r.add("data.sort_ms", ms(tm.stop()))
		if err != nil {
			return err
		}
	}
	return nil
}

// probeSession times the layers underneath a session on the session's own
// plan: planning, the maintenance schedule of every join-tree node, and the
// base-relation side of an update (mutation and join-key index rebuild),
// replaying the stream's first updates against a freshly generated copy of
// the retailer database at scale.
func probeSession(r *run, eng *lmfao.Engine, head *lmfao.Snapshot, queries []*lmfao.Query, scale float64, kept []lmfao.Update) error {
	s := r.top()
	if err := probeSort(r, largest(eng.DB())); err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		tm := s.begin("core.BuildPlan")
		_, err := eng.PlanBatch(queries)
		r.add("core.plan_ms", ms(tm.stop()))
		if err != nil {
			return err
		}
	}
	plan := head.Batch().Plan
	planCounts(r, plan)
	for i := 0; i < 20; i++ {
		for _, node := range eng.Tree().Nodes {
			tm := s.begin("ivm.Analyze")
			_, err := ivm.Analyze(plan, node.ID)
			r.add("ivm.analyze_us", ms(tm.stop())*1e3)
			if err != nil {
				return err
			}
		}
	}

	fresh, err := generate("retailer", scale)
	if err != nil {
		return err
	}
	isKey := map[lmfao.AttrID]bool{}
	for _, a := range fresh.JoinKeys {
		isKey[a] = true
	}
	for _, u := range kept {
		rel := fresh.DB.Relation(u.Relation)
		var key []lmfao.AttrID
		for _, a := range rel.Attrs {
			if isKey[a] {
				key = append(key, a)
			}
		}
		if _, err := rel.KeyIndex(key); err != nil {
			return err
		}
		tm := s.begin("data.ApplyDelta")
		err := fresh.DB.ApplyDelta(u)
		r.add("data.apply_delta_ms", ms(tm.stop()))
		if err != nil {
			return err
		}
		tm = s.begin("data.KeyIndex")
		_, err = rel.KeyIndex(key)
		r.add("data.key_index_ms", ms(tm.stop()))
		if err != nil {
			return err
		}
	}
	return nil
}

// probeRoute times the routing of fact updates to shards.
func probeRoute(r *run, fact *lmfao.Relation, key []lmfao.AttrID, kept []lmfao.Update) error {
	for _, u := range kept {
		if u.Relation != fact.Name {
			continue
		}
		tm := r.top().begin("data.RouteDelta")
		_, err := data.RouteDelta(fact, u, key, 2)
		r.add("data.route_us", ms(tm.stop())*1e3)
		if err != nil {
			return err
		}
	}
	return nil
}
