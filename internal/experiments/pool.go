package experiments

import (
	"sync"
	"time"

	"afrixp/internal/telemetry"
)

// workerPool is the package's one fan-out mechanism: long-lived worker
// goroutines fed task indexes over a channel. The engine builds one per
// campaign for its probing batches (~115k barrier cycles per full
// campaign, which would otherwise each spawn and join goroutines), and
// Reanalyze builds one for the analysis sweep. Each do round is a
// barrier whose goroutines, stacks and scheduler state are reused.
//
// Memory model: the coordinator writes the shared state and the task
// body, then sends task indexes; workers read them after receiving. The
// channel send/receive pairs order those accesses, so workers never
// observe a half-written batch, and the coordinator never reclaims
// state a worker is still reading.
type workerPool struct {
	workers int
	tasks   chan int
	done    chan struct{}
	wg      sync.WaitGroup
	// fn is the current round's task body; it is handed the worker
	// index (0 ≤ worker < workers) so callers can keep private
	// per-worker state, and must only touch per-task state otherwise.
	fn func(worker, task int)
	// eng, when non-nil, accumulates per-worker busy time for
	// utilization reporting. Each worker writes only its own slot, so
	// the timing is pure accounting and never orders the work.
	eng *telemetry.EngineStats
}

// newWorkerPool starts workers goroutines. workers <= 1 starts none:
// the sequential engine is the pool with inline dispatch, not a
// separate code path. eng may be nil (telemetry off).
func newWorkerPool(workers int, eng *telemetry.EngineStats) *workerPool {
	p := &workerPool{workers: max(workers, 1), eng: eng}
	if eng != nil {
		eng.SetWorkers(p.workers)
	}
	if p.workers == 1 {
		return p
	}
	p.tasks = make(chan int, p.workers)
	p.done = make(chan struct{}, p.workers)
	p.wg.Add(p.workers)
	for k := 0; k < p.workers; k++ {
		go func(worker int) {
			defer p.wg.Done()
			for i := range p.tasks {
				p.exec(worker, i)
				p.done <- struct{}{}
			}
		}(k)
	}
	return p
}

// exec runs one task, crediting its wall time to the worker when
// telemetry is attached.
func (p *workerPool) exec(worker, task int) {
	t0 := time.Now()
	p.fn(worker, task)
	p.eng.AddWorkerBusy(worker, time.Since(t0))
}

// do runs fn(worker, 0..n-1) across the pool and returns when all
// complete. Task sends and completion receives are interleaved: with n
// greater than the channel buffering (workers per channel), a
// send-all-first dispatch would deadlock — every worker blocked
// sending done while the coordinator blocks sending the next task.
func (p *workerPool) do(n int, fn func(worker, task int)) {
	p.fn = fn
	if p.workers == 1 {
		for i := 0; i < n; i++ {
			p.exec(0, i)
		}
		return
	}
	sent, recv := 0, 0
	for sent < n {
		select {
		case p.tasks <- sent:
			sent++
		case <-p.done:
			recv++
		}
	}
	for ; recv < n; recv++ {
		<-p.done
	}
}

// close retires the workers. The pool must be idle.
func (p *workerPool) close() {
	if p.tasks != nil {
		close(p.tasks)
		p.wg.Wait()
	}
}
