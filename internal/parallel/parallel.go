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
// A span carried by ctx (obs.ContextWith) records each worker goroutine in
// its "worker" node of the goroutine's index (obs.Span.Worker) — the serial
// path in node 0 — annotated with the number of chunks that worker
// drained. Without a span the loop allocates nothing for tracing.
func ForContext(ctx context.Context, n, taskSize int, body func(lo, hi int)) error {
	if taskSize <= 0 {
		taskSize = DefaultTaskSize
	}
	return work{n: n, size: taskSize, chunk: body}.run(ctx)
}

// ForEach invokes body(i) for every task index i in [0, tasks) using up to
// Workers() goroutines. Unlike For it does not further subdivide: one call
// per task. Use it when tasks are heterogeneous units (e.g. one partition
// per task).
func ForEach(tasks int, body func(task int)) {
	_ = ForEachContext(nil, tasks, body)
}

// ForEachContext is ForEach with the same cooperative-cancellation and
// tracing contract as ForContext: ctx is checked between tasks, tasks in
// flight finish, the ctx error is returned when the loop was cut short, and
// a span carried by ctx receives the workers' spans, each counting the
// tasks it ran as "chunks". Worker w of every loop run under one span
// records into that span's w-th worker node (obs.Span.Worker), so a phase
// that runs several loops shows one node per worker. A nil ctx disables
// cancellation.
func ForEachContext(ctx context.Context, tasks int, body func(task int)) error {
	return work{n: tasks, size: 1, each: body}.run(ctx)
}

// work is one loop's tasks: [0, n) cut into tasks of size elements (the
// last one shorter), each handed to chunk as its range or, when chunk is
// nil, to each as its index. Both loops share run without wrapping one
// body in another closure.
type work struct {
	n, size int
	chunk   func(lo, hi int)
	each    func(task int)
}

func (ts work) do(t int) {
	if ts.chunk == nil {
		ts.each(t)
		return
	}
	lo := t * ts.size
	ts.chunk(lo, min(lo+ts.size, ts.n))
}

// run runs the tasks on ctx's workers; see ForContext and ForEachContext.
func (ts work) run(ctx context.Context) error {
	if ts.n <= 0 {
		return nil
	}
	count := (ts.n + ts.size - 1) / ts.size
	workers := ContextWorkers(ctx)
	if workers > count {
		workers = count
	}
	parent := obs.FromContext(ctx)
	if workers <= 1 {
		sp := parent.Worker(0)
		for t := 0; t < count; t++ {
			if err := ctxErr(ctx); err != nil {
				finishWorker(sp, t)
				return err
			}
			ts.do(t)
		}
		finishWorker(sp, count)
		return nil
	}
	// cut holds the error a worker stopped on: the loop reports what its
	// workers saw instead of asking the context once more. The worker that
	// sees the context end claims every task left, so the others stop at
	// their next claim without asking it either.
	cut := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			sp := parent.Worker(w)
			ran := 0
			for {
				t := int(next.Add(1)) - 1
				if t >= count {
					break
				}
				if cut[w] = ctxErr(ctx); cut[w] != nil {
					next.Store(int64(count))
					break
				}
				ts.do(t)
				ran++
			}
			finishWorker(sp, ran)
		}(w)
	}
	wg.Wait()
	for _, err := range cut {
		if err != nil {
			return err
		}
	}
	return nil
}

// finishWorker stamps and ends a worker span; a nil span costs nothing.
func finishWorker(sp *obs.Span, chunks int) {
	sp.AddInt("chunks", int64(chunks))
	sp.End()
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
