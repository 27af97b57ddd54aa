// Package multi extends CDPF to multiple simultaneous targets — the
// multi-target setting the paper's related work reaches via GMM-based DPFs
// (Sheng et al.) — using one completely distributed tracker per track plus
// nearest-track data association and cluster-based track initiation.
//
// Association is geometric and local: every observation is assigned to the
// track whose predicted position gates it; leftover observations are
// clustered by radio-neighborhood connectivity, and each cluster starts a
// new track. Tracks that lose detection support for maxMissed consecutive
// iterations are retired. All per-track filtering runs through core.Tracker,
// so the communication accounting covers the whole fleet.
package multi

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/wsn"
)

// Config parameterizes the multi-target manager.
type Config struct {
	// Tracker is the per-track CDPF configuration.
	Tracker core.Config
}

const (
	// gateRadii is the association gate around each track's predicted
	// position, in sensing radii. It must cover the sensing radius plus the
	// target's per-iteration displacement (10 + 15 m for the paper's
	// target, with margin).
	gateRadii = 3
	// minInitCluster is the minimum number of mutually-close unassociated
	// detections needed to start a new track (suppresses clutter).
	minInitCluster = 2
	// maxMissed retires a track after this many consecutive iterations
	// without any associated detection.
	maxMissed = 3
)

// DefaultConfig returns a multi-target configuration over the standard CDPF
// tracker (useNE selects CDPF-NE per track).
func DefaultConfig(useNE bool) Config {
	return Config{Tracker: core.DefaultConfig(useNE)}
}

// Track is one maintained target hypothesis.
type Track struct {
	ID      int
	Tracker *core.Tracker

	// Estimate is the latest (lagged) position estimate; valid when
	// EstimateValid.
	Estimate      mathx.Vec2
	EstimateValid bool
	// Predicted is the anchor used for gating at the next iteration.
	Predicted      mathx.Vec2
	PredictedValid bool

	missed int
	// Detection-centroid dead reckoning: the association gate must follow
	// the target even while the underlying tracker is still learning its
	// velocity, so the manager extrapolates the assigned-observation
	// centroid one iteration ahead.
	lastCentroid mathx.Vec2
	haveCentroid bool
	prevCentroid mathx.Vec2
	havePrevCent bool
}

// Manager maintains the track set over one network.
type Manager struct {
	nw     *wsn.Network
	cfg    Config
	gate   float64 // association gate radius (m)
	tracks []*Track
	nextID int
}

// NewManager validates cfg's per-track tracker configuration and returns an
// empty manager.
func NewManager(nw *wsn.Network, cfg Config) (*Manager, error) {
	probe, err := core.NewTracker(nw, cfg.Tracker)
	if err != nil {
		return nil, fmt.Errorf("multi: %w", err)
	}
	probe.Release()
	return &Manager{nw: nw, cfg: cfg, gate: gateRadii * nw.Cfg.SensingRadius}, nil
}

// Tracks returns the live tracks (read-only by convention).
func (m *Manager) Tracks() []*Track { return m.tracks }

// Step associates the iteration's observations to tracks, advances every
// track's CDPF, initiates tracks from unassociated detection clusters, and
// retires unsupported tracks. It returns the live tracks after the update.
func (m *Manager) Step(obs []core.Observation, rng *mathx.RNG) []*Track {
	// --- Association: nearest gating track per observation ---
	assigned := make(map[int][]core.Observation, len(m.tracks))
	var leftovers []core.Observation
	for _, o := range obs {
		pos := m.nw.Node(o.Node).Pos
		best := -1
		bestD := m.gate
		for i, tr := range m.tracks {
			anchor, ok := tr.anchor()
			if !ok {
				continue
			}
			if d := pos.Dist(anchor); d <= bestD {
				best, bestD = i, d
			}
		}
		if best >= 0 {
			assigned[best] = append(assigned[best], o)
		} else {
			leftovers = append(leftovers, o)
		}
	}

	// --- Advance every track ---
	for i, tr := range m.tracks {
		res := tr.Tracker.Step(assigned[i], rng)
		if res.EstimateValid {
			tr.Estimate, tr.EstimateValid = res.Estimate, true
		}
		if len(assigned[i]) == 0 {
			tr.missed++
			// Coast the gate on the tracker's own prediction when it has
			// one; otherwise keep the extrapolated centroid.
			if res.PredictedValid {
				tr.Predicted, tr.PredictedValid = res.Predicted, true
			}
		} else {
			tr.missed = 0
			tr.noteCentroid(m.centroid(assigned[i]))
		}
	}

	// --- Track initiation from unassociated clusters ---
	for _, cl := range m.clusters(leftovers) {
		if len(cl) < minInitCluster {
			continue
		}
		tracker, err := core.NewTracker(m.nw, m.cfg.Tracker)
		if err != nil {
			continue // invalid per-track config was validated at NewManager
		}
		tr := &Track{ID: m.nextID, Tracker: tracker}
		m.nextID++
		tracker.Step(cl, rng) // initialization step on the cluster
		tr.noteCentroid(m.centroid(cl))
		m.tracks = append(m.tracks, tr)
	}

	// --- Retirement ---
	live := m.tracks[:0]
	for _, tr := range m.tracks {
		if tr.missed < maxMissed {
			live = append(live, tr)
		}
	}
	m.tracks = live
	return m.tracks
}

// noteCentroid records the latest assigned-detection centroid and refreshes
// the gating anchor: the centroid dead-reckoned one iteration forward.
func (t *Track) noteCentroid(c mathx.Vec2) {
	if t.haveCentroid {
		t.prevCentroid, t.havePrevCent = t.lastCentroid, true
	}
	t.lastCentroid, t.haveCentroid = c, true
	anchor := c
	if t.havePrevCent {
		anchor = c.Add(c.Sub(t.prevCentroid)) // constant-velocity extrapolation
	}
	t.Predicted, t.PredictedValid = anchor, true
}

// centroid returns the mean position of the observations' host nodes.
func (m *Manager) centroid(obs []core.Observation) mathx.Vec2 {
	var c mathx.Vec2
	for _, o := range obs {
		c = c.Add(m.nw.Node(o.Node).Pos)
	}
	return c.Scale(1 / float64(len(obs)))
}

// anchor returns the gating anchor for association: the predicted position
// when available, else the last estimate.
func (t *Track) anchor() (mathx.Vec2, bool) {
	if t.PredictedValid {
		return t.Predicted, true
	}
	if t.EstimateValid {
		return t.Estimate, true
	}
	return mathx.Vec2{}, false
}

// clusters groups observations into connected components under the "within
// one gate radius" relation, returning deterministically ordered clusters.
func (m *Manager) clusters(obs []core.Observation) [][]core.Observation {
	if len(obs) == 0 {
		return nil
	}
	sort.Slice(obs, func(i, j int) bool { return obs[i].Node < obs[j].Node })
	n := len(obs)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	gate2 := m.gate * m.gate
	for i := 0; i < n; i++ {
		pi := m.nw.Node(obs[i].Node).Pos
		for j := i + 1; j < n; j++ {
			if pi.Dist2(m.nw.Node(obs[j].Node).Pos) <= gate2 {
				union(i, j)
			}
		}
	}
	groups := map[int][]core.Observation{}
	var roots []int
	for i := 0; i < n; i++ {
		r := find(i)
		if _, seen := groups[r]; !seen {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], obs[i])
	}
	sort.Ints(roots)
	out := make([][]core.Observation, 0, len(groups))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}
