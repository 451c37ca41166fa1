// Package idle runs jobs on otherwise idle cores. It is one process-wide
// pool of runtime.GOMAXPROCS(0) worker goroutines, started on first use,
// behind an unbuffered channel: Offer hands a job over only when a worker
// is waiting for one, and never waits itself. A caller whose offer is
// refused runs the job inline, so the pool adds parallelism but never
// queues work or decides what a job computes.
//
// The media sources that code ahead (video.Source, semantic.Source) share
// it: each offers the coding of its next frame or batch and later waits
// for the job to finish before it touches the state the job used.
package idle

import (
	"runtime"
	"sync"
)

// Job is one unit of work for the pool. The pool reports nothing back, so
// Run signals its own completion (the sources send on a per-source
// channel); the pool keeps no reference to a job after Run returns. A Job
// that is a pointer passes through Offer without an allocation.
type Job interface{ Run() }

var (
	once sync.Once
	jobs chan Job
)

// start starts one worker per CPU. They live for the process.
func start() {
	jobs = make(chan Job)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		go func() {
			for j := range jobs {
				j.Run()
			}
		}()
	}
}

// Offer hands j to an idle worker and reports whether one took it. With
// every worker busy it returns false at once, and the caller runs j (or
// its work) itself. The first Offer starts the pool.
func Offer(j Job) bool {
	once.Do(start)
	select {
	case jobs <- j:
		return true
	default:
		return false
	}
}
