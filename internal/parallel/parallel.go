// Package parallel provides the task-based execution substrate used by the
// window operator and all evaluation engines.
//
// The design follows morsel-driven parallelism (Leis et al., SIGMOD 2014) as
// described in §3.2 and §5.2 of the paper: work is cut into a number of
// fixed-size tasks that is linear in the input size (default task size
// 20 000 tuples, matching Hyper), and a pool of workers drains the task
// queue. Task-based — rather than thread-based — parallelism is exactly what
// degrades incremental window algorithms to O(n²), so faithfully reproducing
// it matters for the evaluation.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"holistic/internal/obs"
)

// DefaultTaskSize is the number of tuples per task. Hyper cuts tasks of
// 20 000 tuples (§5.5); we use the same default so that the crossover points
// in the evaluation are comparable.
const DefaultTaskSize = 20000

// maxWorkers caps the worker count; 0 means GOMAXPROCS.
var maxWorkers int32

// SetMaxWorkers limits the number of workers used by For and Run. n <= 0
// restores the default (GOMAXPROCS). It returns the previous limit.
// It is intended for benchmarks that compare serial against parallel
// execution.
func SetMaxWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(atomic.SwapInt32(&maxWorkers, int32(n)))
}

// Workers reports the number of workers For and Run will use.
func Workers() int {
	if n := int(atomic.LoadInt32(&maxWorkers)); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// limitKey carries a per-context worker cap (see ContextWithLimit).
type limitKey struct{}

// ContextWithLimit returns a context that caps the number of workers the
// context-aware loops (ForContext, ForEachContext) use, below the
// process-wide Workers() limit. Unlike SetMaxWorkers the cap is scoped to
// work done under this context, so one capped request cannot starve — or
// be widened by — its neighbours. A nil ctx starts from context.Background;
// n <= 0 removes a cap set further up.
func ContextWithLimit(ctx context.Context, n int) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, limitKey{}, n)
}

// ContextWorkers is Workers() clamped by ctx's cap, if any: the number of
// workers the context-aware loops use under ctx.
func ContextWorkers(ctx context.Context) int {
	workers := Workers()
	if ctx == nil {
		return workers
	}
	if lim, ok := ctx.Value(limitKey{}).(int); ok && lim > 0 && lim < workers {
		return lim
	}
	return workers
}

// For splits [0, n) into chunks of at most taskSize elements and invokes
// body(lo, hi) for each chunk, using up to Workers() goroutines. It returns
// once every chunk completed. taskSize <= 0 selects DefaultTaskSize.
//
// body must be safe for concurrent invocation on disjoint ranges.
func For(n, taskSize int, body func(lo, hi int)) {
	_ = ForContext(nil, n, taskSize, body)
}

// ForContext is For with cooperative cancellation: between task chunks the
// workers check ctx and stop claiming new chunks once it is done, so a
// cancelled caller stops burning cores after at most one chunk per worker.
// Chunks already started always run to completion — body never observes a
// half-processed range. ForContext returns ctx.Err() if the loop was cut
// short, nil if every chunk ran. A nil ctx disables cancellation.
//
// A span carried by ctx (obs.ContextWith) receives one "worker" child per
// worker goroutine — or one for the whole loop on the serial path —
// annotated with the number of chunks that worker drained. Without a span
// the loop allocates nothing for tracing.
func ForContext(ctx context.Context, n, taskSize int, body func(lo, hi int)) error {
	if n <= 0 {
		return nil
	}
	if taskSize <= 0 {
		taskSize = DefaultTaskSize
	}
	tasks := (n + taskSize - 1) / taskSize
	workers := ContextWorkers(ctx)
	if workers > tasks {
		workers = tasks
	}
	parent := obs.FromContext(ctx)
	if workers <= 1 {
		sp := parent.Child("worker")
		chunks := 0
		for lo := 0; lo < n; lo += taskSize {
			if err := ctxErr(ctx); err != nil {
				finishWorker(sp, chunks)
				return err
			}
			hi := lo + taskSize
			if hi > n {
				hi = n
			}
			body(lo, hi)
			chunks++
		}
		finishWorker(sp, chunks)
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			sp := parent.Child("worker")
			chunks := 0
			for ctxErr(ctx) == nil {
				t := int(next.Add(1)) - 1
				if t >= tasks {
					break
				}
				lo := t * taskSize
				hi := lo + taskSize
				if hi > n {
					hi = n
				}
				body(lo, hi)
				chunks++
			}
			finishWorker(sp, chunks)
		}()
	}
	wg.Wait()
	return ctxErr(ctx)
}

// finishWorker stamps and ends a worker span; a nil span costs nothing.
func finishWorker(sp *obs.Span, chunks int) {
	sp.AddInt("chunks", int64(chunks))
	sp.End()
}

// ForEach invokes body(i) for every task index i in [0, tasks) using up to
// Workers() goroutines. Unlike For it does not further subdivide: one call
// per task. Use it when tasks are heterogeneous units (e.g. one partition
// per task).
func ForEach(tasks int, body func(task int)) {
	_ = ForEachContext(nil, tasks, body)
}

// ForEachContext is ForEach with the same cooperative-cancellation contract
// as ForContext: ctx is checked between tasks, tasks in flight finish, and
// the ctx error is returned when the loop was cut short. A nil ctx disables
// cancellation.
func ForEachContext(ctx context.Context, tasks int, body func(task int)) error {
	if tasks <= 0 {
		return nil
	}
	workers := ContextWorkers(ctx)
	if workers > tasks {
		workers = tasks
	}
	if workers <= 1 {
		for t := 0; t < tasks; t++ {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			body(t)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctxErr(ctx) == nil {
				t := int(next.Add(1)) - 1
				if t >= tasks {
					return
				}
				body(t)
			}
		}()
	}
	wg.Wait()
	return ctxErr(ctx)
}

// ctxErr is ctx.Err() tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Run executes the given thunks concurrently (bounded by Workers()) and
// waits for all of them.
func Run(thunks ...func()) {
	ForEach(len(thunks), func(i int) { thunks[i]() })
}
