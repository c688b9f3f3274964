package telemetry

import "teleadjust/internal/radio"

// gaugeKey identifies one gauge: a name scoped to a layer and a node.
type gaugeKey struct {
	Layer Layer
	Node  radio.NodeID
	Name  string
}

// Registry is a per-node gauge table: each gauge is a function read at
// query time, so it reports whatever state it closes over (the per-node
// radio on-time reads the medium, which survives reboots). Event counts
// are not kept here; each layer's Stats() accessor is their read path.
// One registry serves one simulation run; it is not safe for concurrent
// use. A nil *Registry is valid: registrations are dropped and queries
// come back empty.
type Registry struct {
	gauges map[gaugeKey]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{gauges: make(map[gaugeKey]func() float64)}
}

// GaugeFunc registers a gauge read through fn at query time, replacing
// any previous registration under the same key.
func (r *Registry) GaugeFunc(l Layer, node radio.NodeID, name string, fn func() float64) {
	if r == nil {
		return
	}
	r.gauges[gaugeKey{Layer: l, Node: node, Name: name}] = fn
}

// Gauge reads a registered gauge; ok is false when none is registered.
func (r *Registry) Gauge(l Layer, node radio.NodeID, name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	fn, ok := r.gauges[gaugeKey{Layer: l, Node: node, Name: name}]
	if !ok {
		return 0, false
	}
	return fn(), true
}
