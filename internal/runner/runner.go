// Package runner fans independent simulation runs across OS threads.
//
// Every simulation run (core.Run) is single-threaded and fully
// deterministic in its Config, so a parameter sweep is embarrassingly
// parallel: the runner executes jobs on a small worker pool and delivers
// results indexed by job, which keeps the output ordering — and therefore
// every byte a CLI prints — identical no matter how many workers ran.
//
// Workers pull job indices from a shared counter, so heterogeneous run
// lengths load-balance without any coordination beyond one atomic add.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tahoedyn/internal/core"
)

// DefaultWorkers returns the worker count used when a caller passes 0:
// GOMAXPROCS, the number of OS threads the runtime will actually run.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// clampWorkers resolves a caller-supplied worker count against the job
// count: 0 means DefaultWorkers, and there is never a point in more
// workers than jobs. Both Each/EachWorker and the arena sizing in the
// RunConfigs family use it, so worker indices and arena slots agree.
func clampWorkers(workers, n int) int {
	if workers == 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Each runs fn(i) for every i in [0, n), using at most workers concurrent
// goroutines. workers == 0 means DefaultWorkers; workers <= 1 (or n <= 1)
// runs inline on the caller's goroutine with no synchronization at all,
// so the serial path is bit-for-bit the pre-runner behavior.
//
// A panic in any fn is re-raised on the caller's goroutine after all
// workers have drained.
func Each(workers, n int, fn func(i int)) {
	EachWorker(workers, n, func(_, i int) { fn(i) })
}

// EachWorker is Each with worker identity: fn(worker, i) runs job i on
// worker `worker`, a stable index in [0, clamped worker count). A given
// worker runs its jobs sequentially on one goroutine, which is what lets
// callers keep per-worker state — arenas, scratch buffers — without any
// locking. On the serial path every job runs as worker 0.
func EachWorker(workers, n int, fn func(worker, i int)) {
	workers = clampWorkers(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var (
		next     atomic.Int64
		panicked atomic.Value
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicked.CompareAndSwap(nil, fmt.Sprintf("runner: job %d panicked: %v", i, r))
						}
					}()
					fn(worker, i)
				}()
			}
		}(w)
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
}

// Map runs fn(i) for every i in [0, n) on the worker pool and returns the
// results in index order, regardless of completion order.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	Each(workers, n, func(i int) { out[i] = fn(i) })
	return out
}

// RunConfigs executes every configuration on the worker pool and
// returns the results in configuration order. Every worker owns one
// core.Arena for the whole sweep, so an N-point sweep allocates engine
// and packet-pool storage once per worker instead of once per point.
// Each run is deterministic in its Config (including Seed) and arena
// reuse is behavior-neutral, so the returned slice is identical to cold
// core.Run results for any worker count.
func RunConfigs(workers int, cfgs []core.Config) []*core.Result {
	n := len(cfgs)
	results := make([]*core.Result, n)
	arenas := make([]*core.Arena, clampWorkers(workers, n))
	EachWorker(workers, n, func(w, i int) {
		a := arenas[w]
		if a == nil {
			a = core.NewArena()
			arenas[w] = a
		}
		results[i] = a.Run(cfgs[i])
	})
	return results
}

// RunConfigsE executes every configuration with core.RunContext on the
// worker pool. Invalid configurations come back as errors rather than
// panics: the returned slice always has len(cfgs) entries, failed or
// canceled runs are nil, and the error is the errors.Join of every
// per-config failure (tagged with its index). Canceling ctx stops each
// in-flight run within one event batch and skips runs not yet started;
// result ordering is still configuration order, so a partial sweep is
// byte-stable too.
func RunConfigsE(ctx context.Context, workers int, cfgs []core.Config) ([]*core.Result, error) {
	results := make([]*core.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	arenas := make([]*core.Arena, clampWorkers(workers, len(cfgs)))
	EachWorker(workers, len(cfgs), func(w, i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = fmt.Errorf("config %d: %w", i, err)
			return
		}
		a := arenas[w]
		if a == nil {
			a = core.NewArena()
			arenas[w] = a
		}
		res, err := a.RunContext(ctx, cfgs[i])
		if err != nil {
			errs[i] = fmt.Errorf("config %d: %w", i, err)
			return
		}
		results[i] = res
	})
	return results, errors.Join(errs...)
}
