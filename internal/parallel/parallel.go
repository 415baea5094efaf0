// Package parallel is the repository's bounded, deterministic worker
// pool. Every fan-out in the codebase — paired experiment trials,
// replay trials, bagged-ensemble tree fitting, per-feature stump scans —
// goes through Run, which guarantees:
//
//   - Bounded concurrency: at most workers goroutines execute tasks at
//     once (Workers resolves 0 or negative to runtime.GOMAXPROCS(0)).
//     workers == 1 runs every task, in index order, on one goroutine.
//   - Deterministic merge: every error is slotted by task index, never
//     by completion order, and a task writes its result only to its own
//     index's slot of an output slice the caller owns. A caller that
//     derives task inputs deterministically (e.g. pre-drawn per-task
//     seeds — see the determinism contract in ARCHITECTURE.md) gets
//     byte-identical output at any worker count.
//   - Deterministic errors: a failing task does not cancel its
//     siblings; all n tasks run, and Run returns the error of the
//     lowest-numbered failed task — the same error a serial loop would
//     have hit first, regardless of scheduling.
//   - Panic capture: a panicking task is converted into a *PanicError
//     carrying the task index, the panic value, and the stack, and
//     merged like any other error instead of crashing the process.
//
// The pool is intentionally minimal: no futures, no queues that outlive
// a call, no global state. Each Run call owns its goroutines and joins
// them before returning.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: n when positive, otherwise
// runtime.GOMAXPROCS(0). It is the single interpretation rule for every
// `-workers` flag and Workers config field in the repository.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError is a panic recovered from a pool task, preserved with
// enough context to debug it after the merge.
type PanicError struct {
	// Index is the task index that panicked.
	Index int
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// Run executes task(0) … task(n-1) on at most workers goroutines
// (Workers resolves the count) and returns the lowest-index error, or
// nil when every task succeeded. Task indices are dispatched in
// ascending order; a started task always runs to completion, and a
// failed task never prevents its siblings from running, so the returned
// error is independent of scheduling.
//
// The worker count never changes what tasks compute — only how many run
// at once. Callers must keep per-task work independent: tasks may write
// only to their own index's slot of shared output slices.
func Run(workers, n int, task func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}

	call := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		return task(i)
	}

	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				errs[i] = call(i)
			}
		}()
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
