package fleet

import (
	"flex/internal/obs"
)

// Metrics is the fleet aggregation layer's observability. Per-room gauges
// are labeled by room name; totals mirror the Snapshot fields so the tsdb
// sampler picks the fleet view up on its normal registry scrape.
type Metrics struct {
	// Rooms is the number of shards in the fleet.
	Rooms *obs.Gauge
	// Ready is the number of shards currently in StateReady.
	Ready *obs.Gauge
	// State is the fleet health verdict (0 ready, 1 degraded, 2 unsafe).
	State *obs.Gauge
	// StrandedWatts is the fleet total of per-room Eq. 5 stranded power.
	StrandedWatts *obs.Gauge
	// CommittedHeadroomWatts totals the committed recovered power.
	CommittedHeadroomWatts *obs.Gauge
	// DroppedSamples totals ingest-queue evictions across shards.
	DroppedSamples *obs.Gauge
	// Aggregations counts aggregator folds.
	Aggregations *obs.Counter
	// RoomState is the per-room health verdict, labeled by room.
	RoomState *obs.GaugeVec
	// RoomStrandedWatts is per-room Eq. 5 stranded power, labeled by room.
	RoomStrandedWatts *obs.GaugeVec
	// RoomDropped is per-room ingest-queue evictions, labeled by room.
	RoomDropped *obs.GaugeVec
	// StageP50/StageP99 are the fleet critical-path latency quantiles by
	// stage, refreshed from the stage histograms on every aggregator
	// fold (gauge form, so dashboards graph the stage breakdown without
	// client-side histogram math).
	StageP50 *obs.GaugeVec
	StageP99 *obs.GaugeVec
}

// NewMetrics registers the fleet metrics on r (idempotent: calling twice
// with the same registry rebinds the same metrics).
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Rooms:         r.Gauge("flex_fleet_rooms", "shards in the fleet"),
		Ready:         r.Gauge("flex_fleet_rooms_ready", "shards in ready state"),
		State:         r.Gauge("flex_fleet_state", "fleet health verdict (0 ready, 1 degraded, 2 unsafe)"),
		StrandedWatts: r.Gauge("flex_fleet_stranded_watts", "fleet total of per-room Eq. 5 stranded power"),
		CommittedHeadroomWatts: r.Gauge("flex_fleet_committed_headroom_watts",
			"power recovered by enforced, unrestored actions across the fleet"),
		DroppedSamples: r.Gauge("flex_fleet_dropped_samples", "samples evicted from shard ingest queues"),
		Aggregations:   r.Counter("flex_fleet_aggregations_total", "aggregator folds"),
		RoomState: r.GaugeVec("flex_fleet_room_state",
			"per-room health verdict (0 ready, 1 degraded, 2 unsafe)", "room"),
		RoomStrandedWatts: r.GaugeVec("flex_fleet_room_stranded_watts",
			"per-room Eq. 5 stranded power", "room"),
		RoomDropped: r.GaugeVec("flex_fleet_room_dropped_samples",
			"per-room ingest-queue evictions", "room"),
		StageP50: r.GaugeVec("flex_fleet_stage_p50_seconds",
			"fleet critical-path latency p50 by stage", "stage"),
		StageP99: r.GaugeVec("flex_fleet_stage_p99_seconds",
			"fleet critical-path latency p99 by stage", "stage"),
	}
}

// roomGauges are one room's per-room gauges, bound once when the room
// joins so a fold sets them without a label lookup.
type roomGauges struct {
	state, stranded, dropped *obs.Gauge
}

// bindRoom binds the per-room gauge children for room.
func (m *Metrics) bindRoom(room string) roomGauges {
	return roomGauges{
		state:    m.RoomState.With(room),
		stranded: m.RoomStrandedWatts.With(room),
		dropped:  m.RoomDropped.With(room),
	}
}

// export publishes one snapshot to the registry; shards are the
// snapshot's rooms, in order.
func (m *Metrics) export(snap Snapshot, shards []*Shard) {
	m.Ready.Set(float64(snap.Ready))
	m.State.Set(float64(snap.State))
	m.StrandedWatts.Set(float64(snap.StrandedPower))
	m.CommittedHeadroomWatts.Set(float64(snap.CommittedHeadroom))
	m.DroppedSamples.Set(float64(snap.DroppedSamples))
	m.Aggregations.Inc()
	for i, room := range snap.Rooms {
		g := shards[i].gauges
		g.state.Set(float64(room.State))
		g.stranded.Set(float64(room.Stranded))
		g.dropped.Set(float64(room.Dropped))
	}
	for _, st := range snap.Stages {
		m.StageP50.With(st.Stage).Set(st.P50)
		m.StageP99.With(st.Stage).Set(st.P99)
	}
}
