package wsn

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mathx"
)

// Failure scheduling. The paper's deployments (and future-work item 1,
// "tolerance to uncertain factors") pose failures the seed evaluation could
// not express: nodes dying mid-run, links blacking out for a while, whole
// regions going dark. A FaultSchedule is a time-ordered script of such
// events that a driver replays against the network as simulated time
// advances — the tracking loops call ApplyUntil before each filter
// iteration.
//
// Faults drive Node.State: a fail-stopped node is Failed forever; a node
// under a transient outage is Failed until the outage ends, then returns to
// Awake (a duty-cycle scheduler may immediately put it back to sleep). The
// schedule is deterministic: events fire in (time, insertion) order and the
// random node pickers draw from caller-provided RNGs.

// FaultKind classifies one scheduled fault event.
type FaultKind uint8

const (
	// FailStop kills the listed nodes permanently.
	FailStop FaultKind = iota
	// OutageStart takes the listed nodes down until a matching OutageEnd.
	OutageStart
	// OutageEnd restores the listed nodes (unless also fail-stopped or
	// covered by another still-open outage).
	OutageEnd
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FailStop:
		return "fail-stop"
	case OutageStart:
		return "outage-start"
	case OutageEnd:
		return "outage-end"
	}
	return "unknown"
}

// FaultEvent is one scheduled state change for a set of nodes.
type FaultEvent struct {
	Time  float64
	Kind  FaultKind
	Nodes []NodeID
}

// FaultSchedule is a replayable, time-ordered fault script.
type FaultSchedule struct {
	events  []FaultEvent
	applied int             // events already replayed
	perm    map[NodeID]bool // fail-stopped nodes; allocated on first replay
	outages map[NodeID]int  // open-outage nesting count per node; likewise
}

// NewFaultSchedule returns an empty schedule.
func NewFaultSchedule() *FaultSchedule { return &FaultSchedule{} }

// add inserts ev keeping events sorted by time, after any equal-time events
// (stable order), and panics if events before the replay cursor would be
// reordered.
func (fs *FaultSchedule) add(ev FaultEvent) {
	i := sort.Search(len(fs.events), func(i int) bool { return fs.events[i].Time > ev.Time })
	if i < fs.applied {
		panic(fmt.Sprintf("wsn: fault at t=%v scheduled behind the replay cursor", ev.Time))
	}
	fs.events = append(fs.events, FaultEvent{})
	copy(fs.events[i+1:], fs.events[i:])
	fs.events[i] = ev
}

// FailStopAt schedules a permanent fail-stop of the given nodes at time t.
func (fs *FaultSchedule) FailStopAt(t float64, nodes []NodeID) {
	if len(nodes) == 0 {
		return
	}
	fs.add(FaultEvent{Time: t, Kind: FailStop, Nodes: nodes})
}

// OutageAt schedules a transient outage of the given nodes over
// [start, start+duration). Non-positive durations are ignored.
func (fs *FaultSchedule) OutageAt(start, duration float64, nodes []NodeID) {
	if len(nodes) == 0 || duration <= 0 {
		return
	}
	fs.add(FaultEvent{Time: start, Kind: OutageStart, Nodes: nodes})
	fs.add(FaultEvent{Time: start + duration, Kind: OutageEnd, Nodes: nodes})
}

// RegionalBlackout schedules a transient outage of every node within radius
// of center over [start, start+duration) — a localized interference or
// power event taking a whole neighborhood down at once.
func (fs *FaultSchedule) RegionalBlackout(nw *Network, center mathx.Vec2, radius, start, duration float64) {
	fs.OutageAt(start, duration, nw.NodesWithin(center, radius))
}

// AddEvent inserts a raw event — the escape hatch for externally authored
// scripts (the builder methods above cover the common shapes). The event is
// checked by the next Validate call, not here.
func (fs *FaultSchedule) AddEvent(ev FaultEvent) { fs.add(ev) }

// Validate rejects malformed scripts before replay: NaN/Inf or negative
// event times, events with no nodes, unknown kinds, and OutageEnd events
// that no earlier OutageStart on the same node can match (an end with
// nothing to end indicates a mis-assembled script). The builder methods
// cannot produce these, but externally assembled schedules can.
func (fs *FaultSchedule) Validate() error {
	open := make(map[NodeID]int)
	for i, ev := range fs.events {
		if math.IsNaN(ev.Time) || math.IsInf(ev.Time, 0) {
			return fmt.Errorf("wsn: fault event %d has non-finite time %v", i, ev.Time)
		}
		if ev.Time < 0 {
			return fmt.Errorf("wsn: fault event %d has negative time %v", i, ev.Time)
		}
		if len(ev.Nodes) == 0 {
			return fmt.Errorf("wsn: fault event %d (%v at t=%v) has no nodes", i, ev.Kind, ev.Time)
		}
		switch ev.Kind {
		case FailStop:
		case OutageStart:
			for _, id := range ev.Nodes {
				open[id]++
			}
		case OutageEnd:
			for _, id := range ev.Nodes {
				if open[id] == 0 {
					return fmt.Errorf("wsn: fault event %d ends an outage node %d never entered", i, id)
				}
				open[id]--
			}
		default:
			return fmt.Errorf("wsn: fault event %d has unknown kind %d", i, ev.Kind)
		}
	}
	return nil
}

// Len returns the number of scheduled events.
func (fs *FaultSchedule) Len() int { return len(fs.events) }

// Events returns a copy of the scheduled events in replay order, for
// drivers that report or serialize a schedule they did not build.
func (fs *FaultSchedule) Events() []FaultEvent {
	return append([]FaultEvent(nil), fs.events...)
}

// Times returns the distinct event times in ascending order, for drivers
// that schedule replay points on an event engine.
func (fs *FaultSchedule) Times() []float64 {
	var out []float64
	for _, ev := range fs.events {
		if len(out) == 0 || out[len(out)-1] != ev.Time {
			out = append(out, ev.Time)
		}
	}
	return out
}

// ApplyUntil replays every not-yet-applied event with Time <= t against the
// network and returns the number of nodes taken down and restored. Calls
// must present non-decreasing times (replay is cursor-based).
func (fs *FaultSchedule) ApplyUntil(nw *Network, t float64) (down, restored int) {
	if fs.applied < len(fs.events) && fs.perm == nil {
		fs.perm = make(map[NodeID]bool)
		fs.outages = make(map[NodeID]int)
	}
	for fs.applied < len(fs.events) && fs.events[fs.applied].Time <= t {
		ev := fs.events[fs.applied]
		fs.applied++
		for _, id := range ev.Nodes {
			nd := nw.Node(id)
			switch ev.Kind {
			case FailStop:
				fs.perm[id] = true
				if nd.State != Failed {
					down++
				}
				nd.State = Failed
			case OutageStart:
				fs.outages[id]++
				if nd.State != Failed {
					down++
				}
				nd.State = Failed
			case OutageEnd:
				if fs.outages[id] > 0 {
					fs.outages[id]--
				}
				if fs.outages[id] == 0 && !fs.perm[id] && nd.State == Failed {
					nd.State = Awake
					restored++
				}
			}
		}
	}
	return down, restored
}

// DownCount returns the number of nodes the schedule currently holds down
// (fail-stopped or inside an open outage).
func (fs *FaultSchedule) DownCount() int {
	down := make(map[NodeID]bool, len(fs.perm))
	for id := range fs.perm {
		down[id] = true
	}
	for id, n := range fs.outages {
		if n > 0 {
			down[id] = true
		}
	}
	return len(down)
}

// Rewind resets the replay cursor and bookkeeping so the same schedule can
// be replayed against a reset network (see Network.ResetStates).
func (fs *FaultSchedule) Rewind() {
	fs.applied = 0
	fs.perm = nil
	fs.outages = nil
}

// RandomNodes picks ceil(frac·n) distinct nodes uniformly at random from
// the deployment — the usual victim set for failure experiments. It panics
// for fractions outside [0, 1].
func RandomNodes(nw *Network, frac float64, rng *mathx.RNG) []NodeID {
	if frac < 0 || frac > 1 {
		panic("wsn: node fraction outside [0, 1]")
	}
	n := nw.Len()
	k := int(frac*float64(n) + 0.999999)
	if k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	perm := rng.Perm(n)
	out := make([]NodeID, k)
	for i := 0; i < k; i++ {
		out[i] = NodeID(perm[i])
	}
	return out
}
