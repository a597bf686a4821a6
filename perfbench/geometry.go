package main

import (
	"fmt"

	"repro/heffte"
	"repro/internal/core"
	"repro/internal/tensor"
)

// stepKind is one stage of a distributed transform as the benchmark replays
// it: a reshape between two distributions, or a local compute stage.
type stepKind int

const (
	stepReshape stepKind = iota
	stepFFT1D
	stepFFT2D
)

// step is one stage of a plan with the exact per-rank boxes it touches.
type step struct {
	kind  stepKind
	label string
	// from and to are the distributions a reshape moves between; boxes is
	// the distribution a compute stage runs on.
	from, to, boxes []tensor.Box3
	axis            int // stepFFT1D: transform axis

	// Reshape only: the schedule and wire format the plan resolved, and the
	// exchange groups (color per rank, -1 when uninvolved; members per
	// color in ascending rank order).
	phase   heffte.CommPhase
	color   []int
	members map[int][]int
}

// geometry is the stage list of one plan, rebuilt from the plan's public
// description (decomposition, pencil grid, in/out boxes, CommPhases). It is
// what lets the benchmark time each layer's own entry points at the shapes
// the plan really executes, from outside the program.
type geometry struct {
	global [3]int
	ranks  int
	steps  []step
}

// newGeometry mirrors the stage sequence core.NewPlan builds for slab and pencil
// decompositions and checks it against the plan's reported phases.
func newGeometry(global [3]int, in, out []tensor.Box3, decomp heffte.Decomposition, p, q int, phases []heffte.CommPhase) (*geometry, error) {
	g := &geometry{global: global, ranks: len(in)}
	cur := in
	reshape := func(target []tensor.Box3, label string) {
		if boxesEqual(cur, target) {
			return
		}
		g.steps = append(g.steps, step{kind: stepReshape, label: label, from: cur, to: target})
		cur = target
	}
	fft1 := func(axis int) {
		g.steps = append(g.steps, step{kind: stepFFT1D, label: fmt.Sprintf("fft axis %d", axis), boxes: cur, axis: axis})
	}
	switch decomp {
	case heffte.DecompPencils:
		reshape(core.PencilBoxes(global, 0, p, q), "pencil-x")
		fft1(0)
		reshape(core.PencilBoxes(global, 1, p, q), "pencil-y")
		fft1(1)
		reshape(core.PencilBoxes(global, 2, p, q), "pencil-z")
		fft1(2)
	case heffte.DecompSlabs:
		reshape(tensor.SlabGrid(0, g.ranks).Decompose(global), "slab-0")
		g.steps = append(g.steps, step{kind: stepFFT2D, label: "fft planes", boxes: cur})
		reshape(tensor.SlabGrid(1, g.ranks).Decompose(global), "slab-1")
		fft1(0)
	default:
		return nil, fmt.Errorf("geometry: decomposition %v is not replayed", decomp)
	}
	reshape(out, "output")

	i := 0
	for si := range g.steps {
		st := &g.steps[si]
		if st.kind != stepReshape {
			continue
		}
		if i >= len(phases) || phases[i].Label != st.label {
			return nil, fmt.Errorf("geometry: rebuilt reshape %q does not match the plan's phases %v", st.label, phaseLabels(phases))
		}
		st.phase = phases[i]
		st.color, st.members = reshapeGroups(st.from, st.to)
		i++
	}
	if i != len(phases) {
		return nil, fmt.Errorf("geometry: rebuilt %d reshapes, plan reports %v", i, phaseLabels(phases))
	}
	return g, nil
}

func phaseLabels(phases []heffte.CommPhase) []string {
	out := make([]string, len(phases))
	for i, p := range phases {
		out[i] = p.Label
	}
	return out
}

func boxesEqual(a, b []tensor.Box3) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// reshapeGroups splits the ranks of one reshape into the connected
// components of its "data moves between i and j" graph — the exchange
// groups the plan runs its all-to-alls in.
func reshapeGroups(from, to []tensor.Box3) ([]int, map[int][]int) {
	n := len(from)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		if from[i].Empty() {
			continue
		}
		for j := 0; j < n; j++ {
			if tensor.Intersect(from[i], to[j]).Empty() {
				continue
			}
			ri, rj := find(i), find(j)
			if ri > rj {
				ri, rj = rj, ri
			}
			parent[rj] = ri
		}
	}
	color := make([]int, n)
	members := map[int][]int{}
	for r := 0; r < n; r++ {
		if from[r].Empty() && to[r].Empty() {
			color[r] = -1
			continue
		}
		color[r] = find(r)
		members[color[r]] = append(members[color[r]], r)
	}
	return color, members
}

// reshapes returns the reshape steps in execution order.
func (g *geometry) reshapes() []*step {
	var out []*step
	for i := range g.steps {
		if g.steps[i].kind == stepReshape {
			out = append(out, &g.steps[i])
		}
	}
	return out
}
