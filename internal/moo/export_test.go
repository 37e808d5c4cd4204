package moo

import (
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ivm"
)

// ScanShape is what tests outside the package read of a compiled group
// scan: its attribute order and, per input view ID, the order depth the
// input binds at (-1 for an empty consumer key).
type ScanShape struct {
	Order     []data.AttrID
	BindDepth map[int]int
}

func shapeOf(gp *groupPlan) ScanShape {
	s := ScanShape{Order: gp.order, BindDepth: map[int]int{}}
	for _, in := range gp.inputs {
		s.BindDepth[in.id] = in.bindDepth
	}
	return s
}

// GroupScanShape compiles group g of p as Engine.runGroup does.
func GroupScanShape(p *core.Plan, g *core.Group) (ScanShape, error) {
	gp, err := compileGroup(p, g, true)
	if err != nil {
		return ScanShape{}, err
	}
	return shapeOf(gp), nil
}

// KernelScanShape compiles, through the engine's kernel cache, the kernel
// Engine.Apply runs for step st of a delta at node changed.
func (e *Engine) KernelScanShape(p *core.Plan, changed int, st ivm.Step) (ScanShape, error) {
	k, err := e.kernelFor(p, changed, st)
	if err != nil {
		return ScanShape{}, err
	}
	return shapeOf(k.gp), nil
}

// CheckScanRuns scans every group of res's plan with and without its
// compiled runs and fails unless both give the same bits (checkScanRuns).
var CheckScanRuns = checkScanRuns
