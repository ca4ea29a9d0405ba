package dist

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"

	"repro/client"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Cluster is a self-contained coordinator plus n worker loops talking
// to it over a real loopback HTTP listener — the same wire path a
// multi-machine deployment uses, shrunk into one process. It backs
// NewEngine and the bit-identity/chaos tests.
type Cluster struct {
	// Coordinator is the cluster's queue; pass it as the engine's
	// RemoteRunner.
	Coordinator *Coordinator
	// URL is the coordinator's base URL on 127.0.0.1.
	URL string

	srv    *http.Server
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// StartLocal starts a coordinator on a loopback listener and n workers
// leasing from it. newEngine builds each worker's engine (workers need
// their own engines: a worker sharing the coordinating engine's store
// would short-circuit the wire path the cluster exists to exercise;
// sharing is still fine, just untested here). Close the cluster when
// done.
func StartLocal(n int, cfg CoordinatorConfig, newEngine func(i int) *sim.Engine) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("dist: a local worker cluster needs at least one worker, got %d", n)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("dist: listen: %w", err)
	}
	coord := NewCoordinator(cfg)
	mux := http.NewServeMux()
	mux.Handle("/v1/work/", coord.Handler())
	cl := &Cluster{
		Coordinator: coord,
		URL:         "http://" + ln.Addr().String(),
		srv:         &http.Server{Handler: mux},
	}
	go func() { _ = cl.srv.Serve(ln) }()

	ctx, cancel := context.WithCancel(context.Background())
	cl.cancel = cancel
	for i := 0; i < n; i++ {
		w := &Worker{
			Client: client.New(cl.URL),
			Engine: newEngine(i),
			Name:   fmt.Sprintf("local-%d", i),
		}
		cl.wg.Add(1)
		go func() {
			defer cl.wg.Done()
			_ = w.Run(ctx)
		}()
	}
	return cl, nil
}

// Close stops the coordinator (failing any still-pending items and
// answering parked lease requests at once), the workers, and the HTTP
// listener. Idempotent.
func (cl *Cluster) Close() {
	cl.Coordinator.Close()
	if cl.cancel != nil {
		cl.cancel()
	}
	cl.wg.Wait()
	_ = cl.srv.Close()
}

// NewEngine returns an engine for cfg and a function that releases it.
// With workers > 0 the engine coordinates a loopback cluster of that
// many workers (StartLocal) — the same wire path as a real fleet, with
// bit-identical results — and the close function stops the cluster.
// The engine and its workers share one stream cache (cfg.Streams, or a
// fresh one sized by cfg.StreamMemory), so each benchmark materializes
// once per process. With workers <= 0 it is sim.NewEngine(cfg).
func NewEngine(cfg sim.EngineConfig, workers int) (*sim.Engine, func(), error) {
	if workers <= 0 {
		return sim.NewEngine(cfg), func() {}, nil
	}
	if cfg.Streams == nil && cfg.StreamMemory >= 0 {
		cfg.Streams = workload.NewStreamCache(cfg.StreamMemory, "")
	}
	cl, err := StartLocal(workers, CoordinatorConfig{}, func(int) *sim.Engine {
		return sim.NewEngine(sim.EngineConfig{Streams: cfg.Streams, StreamMemory: cfg.StreamMemory})
	})
	if err != nil {
		return nil, nil, err
	}
	cfg.Remote = cl.Coordinator
	return sim.NewEngine(cfg), cl.Close, nil
}
