package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"awakemis"
	"awakemis/client"
	"awakemis/internal/service"
)

// Options tunes a Front. The zero value is production-usable.
type Options struct {
	// HTTPClient carries all peer traffic (nil means http.DefaultClient).
	HTTPClient *http.Client
	// HealthInterval paces the background health probes (0 means 2s;
	// negative disables probing — health then updates only on forward
	// failures, which tests use for determinism).
	HealthInterval time.Duration
	// ProbeTimeout bounds one health probe (0 means 2s).
	ProbeTimeout time.Duration
	// Replicas is the ring's virtual-node count per peer (0 means 64).
	Replicas int
	// Logger receives structured records for forwards, reroutes, and
	// peer health transitions (nil silences them).
	Logger *slog.Logger
}

// Front shards flights across worker daemons: consistent hashing by
// canonical spec hash picks the owner, unhealthy peers are skipped,
// and a failed forward reroutes to the ring successor — the job runs
// somewhere as long as any peer is alive. Implements
// service.Forwarder; create with New, start probing with Start, stop
// with Close.
type Front struct {
	ring  *Ring
	peers map[string]*peer

	interval time.Duration
	timeout  time.Duration
	logger   *slog.Logger

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// peer is one worker daemon as the front sees it.
type peer struct {
	addr    string
	client  *client.Client
	healthy atomic.Bool
}

// New builds a Front over the peer base URLs ("host:port" is
// normalized to "http://host:port"). Peers start optimistically
// healthy; probing begins at Start.
func New(addrs []string, opts Options) (*Front, error) {
	if opts.HealthInterval == 0 {
		opts.HealthInterval = 2 * time.Second
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = 2 * time.Second
	}
	normalized := make([]string, 0, len(addrs))
	for _, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		normalized = append(normalized, strings.TrimRight(a, "/"))
	}
	if len(normalized) == 0 {
		return nil, errors.New("cluster: no peers")
	}
	f := &Front{
		ring:     NewRing(normalized, opts.Replicas),
		peers:    make(map[string]*peer, len(normalized)),
		interval: opts.HealthInterval,
		timeout:  opts.ProbeTimeout,
		logger:   opts.Logger,
		stop:     make(chan struct{}),
	}
	if f.logger == nil {
		// Silent: the level is above every record's, so Enabled is false
		// and no record is formatted. (slog.DiscardHandler needs Go 1.24;
		// go.mod says 1.23.)
		f.logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	for _, addr := range f.ring.Peers() {
		p := &peer{addr: addr, client: client.New(addr, opts.HTTPClient)}
		p.healthy.Store(true)
		f.peers[addr] = p
	}
	return f, nil
}

// Start launches the background health prober (a no-op when probing
// is disabled).
func (f *Front) Start() {
	if f.interval < 0 {
		return
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		ticker := time.NewTicker(f.interval)
		defer ticker.Stop()
		for {
			select {
			case <-f.stop:
				return
			case <-ticker.C:
				f.probe()
			}
		}
	}()
}

// Close stops the health prober. In-flight forwards are unaffected —
// the graceful-drain order is: drain the front server (forwards
// finish), then Close.
func (f *Front) Close() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.wg.Wait()
}

// probe health-checks every peer concurrently, logging transitions.
func (f *Front) probe() {
	var wg sync.WaitGroup
	for _, p := range f.peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), f.timeout)
			defer cancel()
			_, err := p.client.Health(ctx)
			up := err == nil
			if was := p.healthy.Swap(up); was != up {
				if up {
					f.logger.Info("peer recovered", "peer", p.addr)
				} else {
					f.logger.Warn("peer unhealthy", "peer", p.addr, "error", err.Error())
				}
			}
		}(p)
	}
	wg.Wait()
}

// FetchPeerStats implements service.Forwarder's read side of GET
// /v1/cluster/stats: one concurrent /v1/stats fetch per peer, each
// bounded by the probe timeout (within ctx), returning one snapshot
// per configured peer — its Stats on success, the error otherwise.
// The front's own stats are not included; the service layer adds its
// own snapshot when it assembles the fleet view.
func (f *Front) FetchPeerStats(ctx context.Context) []service.PeerSnapshot {
	addrs := f.ring.Peers()
	snaps := make([]service.PeerSnapshot, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, f.timeout)
			defer cancel()
			st, err := p.client.Stats(pctx)
			snaps[i] = service.PeerSnapshot{Addr: p.addr, Stats: st, Err: err}
		}(i, f.peers[addr])
	}
	wg.Wait()
	return snaps
}

// PeerHealth reports every peer's last known health (service.Forwarder).
func (f *Front) PeerHealth() map[string]bool {
	health := make(map[string]bool, len(f.peers))
	for addr, p := range f.peers {
		health[addr] = p.healthy.Load()
	}
	return health
}

// permanentError marks a failure that would recur on every peer (the
// spec itself is bad, or its simulation legitimately failed) — the
// front must surface it, not reroute it.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// permanent classifies a peer failure: 4xx API responses (other than
// 404/408, which a restarted or slow peer can produce spuriously)
// and explicitly marked errors are deterministic; everything else —
// connection failures, 5xx, timeouts — is the peer's problem and
// worth rerouting.
func permanent(err error) bool {
	var pe *permanentError
	if errors.As(err, &pe) {
		return true
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode >= 400 && apiErr.StatusCode < 500 &&
			apiErr.StatusCode != http.StatusNotFound &&
			apiErr.StatusCode != http.StatusRequestTimeout
	}
	return false
}

// Forward implements service.Forwarder: run the spec on the peer
// owning its canonical hash, rerouting along the ring on peer
// failure. Healthy peers are tried first in ring order; if every
// healthy peer fails, the unhealthy ones get a last-resort attempt
// (the prober may simply not have noticed a recovery yet). The
// returned bytes are the serving peer's exact report bytes; progress,
// when non-nil, receives the owning peer's live job-progress views.
// The trace id carried by ctx rides the forwarded requests, so the
// worker daemon's logs join the submitter's trail.
func (f *Front) Forward(ctx context.Context, spec awakemis.Spec, progress func(service.JobProgress)) ([]byte, string, error) {
	hash, err := service.Hash(spec)
	if err != nil {
		return nil, "", err
	}
	order := f.ring.Order(hash)
	candidates := make([]string, 0, len(order))
	for _, addr := range order { // healthy first, ring order preserved
		if f.peers[addr].healthy.Load() {
			candidates = append(candidates, addr)
		}
	}
	for _, addr := range order {
		if !f.peers[addr].healthy.Load() {
			candidates = append(candidates, addr)
		}
	}
	var lastErr error
	for i, addr := range candidates {
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		p := f.peers[addr]
		if i > 0 {
			f.logger.Info("rerouting flight", "hash", hash, "peer", addr, "attempt", i+1)
		}
		data, err := f.runOn(ctx, p, spec, progress)
		if err == nil {
			p.healthy.Store(true)
			return data, addr, nil
		}
		if permanent(err) || ctx.Err() != nil {
			return nil, addr, err
		}
		p.healthy.Store(false)
		lastErr = err
	}
	return nil, "", fmt.Errorf("cluster: all %d peers failed: %w", len(candidates), lastErr)
}

// runOn submits the spec to one peer and waits for its report bytes,
// relaying the peer's live progress views to the front's tracker.
func (f *Front) runOn(ctx context.Context, p *peer, spec awakemis.Spec, progress func(service.JobProgress)) ([]byte, error) {
	job, err := p.client.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	if !job.Status.Terminal() {
		var onUpdate func(*client.Job)
		if progress != nil {
			onUpdate = func(j *client.Job) {
				if j.Progress != nil {
					progress(*j.Progress)
				}
			}
		}
		if job, err = p.client.WaitJob(ctx, job.ID, onUpdate); err != nil {
			return nil, err
		}
	}
	switch job.Status {
	case client.JobDone:
		return job.Report, nil
	case client.JobFailed:
		// Deterministic simulators fail deterministically: rerouting
		// would just fail again elsewhere.
		return nil, &permanentError{fmt.Errorf("peer %s: job %s failed: %s", p.addr, job.ID, job.Error)}
	default:
		// Canceled on the peer (say, a drain timeout killed it): another
		// peer can still run it.
		return nil, fmt.Errorf("peer %s: job %s ended %s", p.addr, job.ID, job.Status)
	}
}
