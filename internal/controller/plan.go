// Package controller implements Flex-Online (paper §IV-D): highly
// available controllers that watch the UPS power telemetry for overdraw
// and, when it appears, select and enforce the minimum-impact set of
// corrective actions — shutting down software-redundant racks and
// throttling non-redundant cap-able racks to their flex power — to bring
// every UPS back below its rated capacity within the overload tolerance
// window. The selection policy is the paper's Algorithm 1, driven by
// per-workload impact functions.
package controller

import (
	"context"
	"fmt"
	"sort"

	"flex/internal/impact"
	"flex/internal/power"
	"flex/internal/workload"
)

// ActionKind is the corrective action type (Algorithm 1 line 8).
type ActionKind int

// Action kinds.
const (
	// Shutdown powers off a software-redundant rack.
	Shutdown ActionKind = iota
	// Throttle caps a non-redundant cap-able rack at its flex power.
	Throttle
)

// String implements fmt.Stringer.
func (k ActionKind) String() string {
	if k == Shutdown {
		return "shutdown"
	}
	return "throttle"
}

// ManagedRack is one rack under Flex-Online control.
type ManagedRack struct {
	ID       string
	Workload string
	Category workload.Category
	// Pair is the PDU-pair feeding the rack.
	Pair power.PDUPairID
	// Allocated is the rack's provisioned power.
	Allocated power.Watts
	// FlexPower is the lowest permissible cap for cap-able racks (0 for
	// software-redundant, Allocated for non-cap-able).
	FlexPower power.Watts
	// Priority orders PickRack within a workload: lower values are acted
	// on first ("returns a rack... either randomly or as prioritized by
	// the workload", §IV-D). Racks with equal priority order by ID.
	Priority int
}

// PlannedAction is one corrective action chosen by Algorithm 1.
type PlannedAction struct {
	Rack      string
	Workload  string
	Kind      ActionKind
	Recovered power.Watts // estimated power recovered (R_r)
	Impact    float64     // workload impact after this action (I_w)
	CapTarget power.Watts // throttle target (flex power); 0 for shutdown
}

// PlanInput is the snapshot Algorithm 1 works from.
type PlanInput struct {
	Topo  *power.Topology
	Racks []ManagedRack
	// UPSPower is the latest measured power per UPS (line 2).
	UPSPower []power.Watts
	// RackPower is the latest measured power per rack ID (line 3); racks
	// without a reading are estimated at their allocated power (the safe,
	// conservative assumption).
	RackPower map[string]power.Watts
	// Inactive marks UPSes currently out of service: their pairs' loads
	// rest entirely on the partner UPS. Use InferInactiveUPSes when the
	// set is unknown.
	Inactive map[power.UPSID]bool
	// Scenario supplies the impact functions.
	Scenario impact.Scenario
	// Buffer is the safety margin below each UPS limit that the plan must
	// reach (line 4's buffer, §IV-D: "to account for mis-estimation").
	Buffer power.Watts
	// Acted lists racks already acted on (for multi-round planning);
	// they are not candidates again.
	Acted map[string]bool
}

// Plan runs Algorithm 1 without a cancellation point. It is shorthand for
// PlanContext(context.Background(), in); callers on the live control path
// should prefer PlanContext so a planning pass cannot eat into the
// 10-second shed budget.
func Plan(in PlanInput) (actions []PlannedAction, insufficient bool, err error) {
	//flexlint:ignore ctxflow deprecated ctx-less shorthand; live callers use PlanContext
	return PlanContext(context.Background(), in)
}

// PlanContext is the paper's Algorithm 1: repeatedly pick, across
// workloads, the candidate rack whose action has the least workload impact
// (ties: most recovered power, then rack ID) until the estimated power of
// every UPS is below its limit minus the buffer. It returns the chosen
// actions and whether the target was reached (insufficient=false) — when
// every shaveable rack is exhausted and some UPS is still over,
// insufficient is true and the actions still help but cannot guarantee
// safety.
//
// ctx is checked once per greedy iteration. When it expires mid-plan the
// actions chosen so far are returned together with insufficient=true and
// context.Cause(ctx): a truncated plan still sheds real power, so callers
// should enforce it rather than discard it (shedding less than needed
// beats shedding nothing inside the overload tolerance window).
//
// PlanContext builds a one-shot Planner over in.Racks; callers that plan
// the same rack set repeatedly keep a Planner instead.
func PlanContext(ctx context.Context, in PlanInput) (actions []PlannedAction, insufficient bool, err error) {
	p := NewPlanner(in.Topo, in.Racks, in.Scenario)
	var acted []bool
	if len(in.Acted) > 0 {
		acted = make([]bool, len(in.Racks))
		for i, r := range in.Racks {
			acted[i] = in.Acted[r.ID]
		}
	}
	return p.Plan(ctx, nil, Round{
		UPSPower:  in.UPSPower,
		RackPower: in.RackPower,
		Inactive:  in.Inactive,
		Buffer:    in.Buffer,
		Acted:     acted,
	})
}

// Planner is Algorithm 1 bound to one rack set. NewPlanner sorts the
// racks into PickRack order and groups them by workload once; every Plan
// call then walks that structure with the planner's own scratch, so a
// controller or auditor that plans the same room over and over keeps one
// Planner instead of re-sorting its racks per pass. A Planner is not safe
// for concurrent use.
type Planner struct {
	topo  *power.Topology
	racks []ManagedRack
	wls   []plannerWorkload // sorted by workload name

	// scratch, reused by every Plan call
	est    []power.Watts
	state  []workloadState
	chosen []int32 // slots of the last call's actions
}

// plannerWorkload is one workload's static planning data.
type plannerWorkload struct {
	name     string
	category workload.Category // of its first rack in PickRack order
	fn       impact.Function
	racks    []int32 // slots in PickRack order: Priority, then ID
}

// workloadState is one workload's progress through a Plan call.
type workloadState struct {
	affected int // racks acted on, before or during this pass
	next     int // index into plannerWorkload.racks of the queue head
	// cand is the workload's candidate action (Algorithm 1 lines 5–12)
	// while ok; it changes only when the workload's own queue advances.
	cand PlannedAction
	ok   bool
}

// Round is one planning pass's live inputs. The topology, rack set and
// impact functions are the Planner's.
type Round struct {
	// UPSPower is the latest measured power per UPS (line 2).
	UPSPower []power.Watts
	// RackPower is the latest measured power per rack ID (line 3); racks
	// without a reading are estimated at their allocated power.
	RackPower map[string]power.Watts
	// Inactive marks UPSes currently out of service.
	Inactive map[power.UPSID]bool
	// Buffer is the safety margin below each UPS limit.
	Buffer power.Watts
	// Acted marks, by slot (index into the Planner's racks), racks
	// already acted on; nil when none are. They are not candidates again.
	Acted []bool
}

// NewPlanner builds the planner for racks in topo, taking each workload's
// impact function from sc. The planner keeps racks; callers must not
// modify the slice afterwards.
func NewPlanner(topo *power.Topology, racks []ManagedRack, sc impact.Scenario) *Planner {
	p := &Planner{topo: topo, racks: racks}
	order := make([]int32, len(racks))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := &racks[order[i]], &racks[order[j]]
		if a.Priority != b.Priority {
			return a.Priority < b.Priority
		}
		return a.ID < b.ID
	})
	byName := map[string]int{}
	for _, s := range order {
		r := &racks[s]
		w, ok := byName[r.Workload]
		if !ok {
			w = len(p.wls)
			byName[r.Workload] = w
			p.wls = append(p.wls, plannerWorkload{
				name:     r.Workload,
				category: r.Category,
				fn:       sc.For(r.Workload, r.Category),
			})
		}
		p.wls[w].racks = append(p.wls[w].racks, s)
	}
	sort.Slice(p.wls, func(i, j int) bool { return p.wls[i].name < p.wls[j].name })
	p.state = make([]workloadState, len(p.wls))
	return p
}

// Slots returns the slots (indexes into the planner's racks) of the
// actions the last Plan call appended, in order. The slice is the
// planner's scratch, valid until the next Plan call.
func (p *Planner) Slots() []int32 { return p.chosen }

// Plan runs Algorithm 1 (see PlanContext) for one round and appends the
// chosen actions to dst, returning the extended slice. It allocates
// nothing once its scratch has grown, beyond what appending to dst
// needs.
func (p *Planner) Plan(ctx context.Context, dst []PlannedAction, in Round) (actions []PlannedAction, insufficient bool, err error) {
	topo := p.topo
	p.chosen = p.chosen[:0]
	if len(in.UPSPower) != len(topo.UPSes) {
		return dst, false, fmt.Errorf("controller: UPS snapshot has %d entries for %d UPSes", len(in.UPSPower), len(topo.UPSes))
	}
	p.est = append(p.est[:0], in.UPSPower...)
	est := p.est
	for i := range p.wls {
		st := &p.state[i]
		*st = workloadState{}
		if in.Acted != nil {
			for _, s := range p.wls[i].racks {
				if in.Acted[s] {
					st.affected++
				}
			}
		}
		p.candidate(i, in)
	}

	overLimit := func() bool {
		for u := range topo.UPSes {
			if in.Inactive[power.UPSID(u)] {
				continue
			}
			if est[u] > topo.UPSes[u].Capacity-in.Buffer {
				return true
			}
		}
		return false
	}

	actions = dst
	for overLimit() {
		if ctx.Err() != nil {
			return actions, true, context.Cause(ctx)
		}
		// Select argmin impact over the candidate set C (line 13); ties:
		// max recovered, then ID. Workloads are visited in name order.
		best := -1
		for i := range p.state {
			if !p.state[i].ok {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			a, b := &p.state[i].cand, &p.state[best].cand
			switch {
			case a.Impact < b.Impact-1e-12:
				best = i
			case a.Impact <= b.Impact+1e-12 && a.Recovered > b.Recovered:
				best = i
			case a.Impact <= b.Impact+1e-12 && a.Recovered == b.Recovered && a.Rack < b.Rack:
				best = i
			}
		}
		if best < 0 {
			return actions, true, nil // exhausted all shaveable racks
		}
		st := &p.state[best]
		chosen := st.cand
		slot := p.wls[best].racks[st.next]
		actions = append(actions, chosen)
		p.chosen = append(p.chosen, slot)
		st.affected++
		st.next++
		p.candidate(best, in)
		// Update the UPS estimates with the rack's share (line 15).
		applyRecovery(topo, est, in.Inactive, p.racks[slot].Pair, chosen.Recovered)
	}
	return actions, false, nil
}

// candidate advances workload i's queue head past acted and
// non-shaveable racks and computes its candidate action (lines 5–12):
// one rack per workload, picked in PickRack order.
func (p *Planner) candidate(i int, in Round) {
	w, st := &p.wls[i], &p.state[i]
	st.ok = false
	for st.next < len(w.racks) {
		r := &p.racks[w.racks[st.next]]
		if (in.Acted == nil || !in.Acted[w.racks[st.next]]) && r.Category.Shaveable() {
			break
		}
		st.next++
	}
	if st.next == len(w.racks) {
		return
	}
	r := &p.racks[w.racks[st.next]]
	pw, ok := in.RackPower[r.ID]
	if !ok {
		pw = r.Allocated // conservative: assume full draw
	}
	switch w.category {
	case workload.SoftwareRedundant:
		st.cand = PlannedAction{Rack: r.ID, Workload: w.name, Kind: Shutdown, Recovered: pw}
	case workload.NonRedundantCapable:
		rec := pw - r.FlexPower
		if rec < 0 {
			rec = 0
		}
		st.cand = PlannedAction{Rack: r.ID, Workload: w.name, Kind: Throttle, Recovered: rec, CapTarget: r.FlexPower}
	default:
		return
	}
	st.cand.Impact = w.fn.At(float64(st.affected+1) / float64(len(w.racks)))
	st.ok = true
}

// applyRecovery subtracts a rack's recovered power from the UPS estimates
// according to the live topology: normally half to each upstream UPS of
// its pair; when one of them is inactive, everything rests on the other.
func applyRecovery(topo *power.Topology, est []power.Watts, inactive map[power.UPSID]bool, pair power.PDUPairID, rec power.Watts) {
	p := topo.Pairs[pair]
	a, b := p.UPSes[0], p.UPSes[1]
	switch {
	case inactive[a] && inactive[b]:
		// Pair is dark; nothing to subtract.
	case inactive[a]:
		est[b] -= rec
	case inactive[b]:
		est[a] -= rec
	default:
		est[a] -= rec / 2
		est[b] -= rec / 2
	}
}

// InferInactiveUPSes infers which UPSes are out of service from the power
// snapshot alone: a UPS whose measured output is below threshold (as a
// fraction of capacity) while the room is loaded is treated as inactive.
// This matches the paper's design — the controllers monitor only power,
// not failure events (§IV-D).
func InferInactiveUPSes(topo *power.Topology, upsPower []power.Watts, threshold float64) map[power.UPSID]bool {
	out := make(map[power.UPSID]bool)
	var total power.Watts
	for _, w := range upsPower {
		total += w
	}
	if total <= 0 {
		return out // unloaded room: nothing to infer
	}
	for u, w := range upsPower {
		if u < len(topo.UPSes) && float64(w) < threshold*float64(topo.UPSes[u].Capacity) {
			out[power.UPSID(u)] = true
		}
	}
	return out
}
