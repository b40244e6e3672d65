package service

import (
	"context"
	"fmt"
	"maps"
	"net/http"
	"sort"
	"time"

	"awakemis/internal/buildinfo"
)

// PeerSnapshot is one peer's /v1/stats fetch result as
// Forwarder.FetchPeerStats reports it: the peer's Stats on success,
// the fetch error otherwise.
type PeerSnapshot struct {
	Addr  string
	Stats *Stats
	Err   error
}

// clusterStatsTimeout bounds the whole fan-out fetch; the fetcher
// additionally bounds each peer individually, so one hung peer delays
// the response by at most its probe timeout.
const clusterStatsTimeout = 5 * time.Second

// ClusterPeerStats is one peer's row in the /v1/cluster/stats payload.
type ClusterPeerStats struct {
	Addr string `json:"addr"`
	// Up reports whether the stats fetch succeeded — a live liveness
	// signal, not the prober's cached opinion.
	Up    bool   `json:"up"`
	Error string `json:"error,omitempty"`
	Stats *Stats `json:"stats,omitempty"`
}

// ClusterStats is the /v1/cluster/stats payload: the serving front's
// own snapshot, every peer's snapshot (fetched concurrently with
// bounded timeouts), and the merged fleet total — queue depth,
// inflight, cache/store counters, and engine runs summed across self
// plus every reachable peer. Hit *rates* are intentionally absent:
// they derive from the summed hits/misses, and shipping both invites
// disagreement.
type ClusterStats struct {
	Self       Stats              `json:"self"`
	Peers      []ClusterPeerStats `json:"peers"`
	Total      Stats              `json:"total"`
	PeersUp    int                `json:"peers_up"`
	PeersTotal int                `json:"peers_total"`
}

// handleClusterStats is GET /v1/cluster/stats, served by a cluster
// front (a daemon given -peers); everything else 404s — a worker
// daemon has no fleet to aggregate.
func (s *Server) handleClusterStats(w http.ResponseWriter, r *http.Request) {
	if s.fwd == nil {
		writeError(w, fmt.Errorf("%w: not a cluster front", ErrNotFound))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), clusterStatsTimeout)
	defer cancel()
	snaps := s.fwd.FetchPeerStats(ctx)
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Addr < snaps[j].Addr })

	cs := ClusterStats{
		Self:       s.StatsSnapshot(),
		Peers:      make([]ClusterPeerStats, 0, len(snaps)),
		PeersTotal: len(snaps),
	}
	cs.Total = cs.Self
	// Total starts as a deep copy of Self: the map fields must not be
	// shared, or merging peers would corrupt the Self view.
	cs.Total.PeerForwards = maps.Clone(cs.Self.PeerForwards)
	cs.Total.StudyCells = maps.Clone(cs.Self.StudyCells)
	// The fleet total carries no single build identity.
	cs.Total.Info = buildinfo.Info{}
	for _, snap := range snaps {
		row := ClusterPeerStats{Addr: snap.Addr}
		if snap.Err != nil {
			row.Error = snap.Err.Error()
		} else {
			row.Up, row.Stats = true, snap.Stats
			cs.PeersUp++
			mergeStats(&cs.Total, snap.Stats)
		}
		cs.Peers = append(cs.Peers, row)
	}
	writeJSON(w, http.StatusOK, cs)
}

// mergeStats folds one peer's snapshot into the fleet total: counters
// and gauges sum (queue depth and inflight are additive pressure
// across the fleet), maps merge key-wise, Draining ORs (one draining
// daemon makes the fleet partially draining), and the build-identity
// strings stay whatever the destination carries.
func mergeStats(dst *Stats, src *Stats) {
	dst.CacheHits += src.CacheHits
	dst.CacheMisses += src.CacheMisses
	dst.Coalesced += src.Coalesced
	dst.EngineRuns += src.EngineRuns
	dst.CacheEntries += src.CacheEntries
	dst.CacheBytes += src.CacheBytes
	dst.CacheBudget += src.CacheBudget
	dst.CacheEvictions += src.CacheEvictions
	dst.JobsSubmitted += src.JobsSubmitted
	dst.JobsCompleted += src.JobsCompleted
	dst.JobsFailed += src.JobsFailed
	dst.JobsCanceled += src.JobsCanceled
	dst.StudiesSubmitted += src.StudiesSubmitted
	dst.StudiesCompleted += src.StudiesCompleted
	dst.StudiesFailed += src.StudiesFailed
	dst.StudiesCanceled += src.StudiesCanceled
	dst.QueueDepth += src.QueueDepth
	dst.InFlight += src.InFlight
	dst.Draining = dst.Draining || src.Draining
	dst.StoreHits += src.StoreHits
	dst.StoreMisses += src.StoreMisses
	dst.StoreEntries += src.StoreEntries
	dst.StoreBytes += src.StoreBytes
	dst.StoreBudget += src.StoreBudget
	dst.StoreEvictions += src.StoreEvictions
	dst.StoreCorrupt += src.StoreCorrupt
	dst.StoreErrors += src.StoreErrors
	dst.Forwarded += src.Forwarded
	dst.ForwardErrors += src.ForwardErrors
	dst.PeersHealthy += src.PeersHealthy
	dst.PeersTotal += src.PeersTotal
	dst.RoundsSimulated += src.RoundsSimulated
	dst.SimSeconds += src.SimSeconds
	for peer, n := range src.PeerForwards {
		if dst.PeerForwards == nil {
			dst.PeerForwards = map[string]int64{}
		}
		dst.PeerForwards[peer] += n
	}
	for state, n := range src.StudyCells {
		if dst.StudyCells == nil {
			dst.StudyCells = map[string]int64{}
		}
		dst.StudyCells[state] += n
	}
}
