package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != want {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Workers(-5); got != want {
		t.Fatalf("Workers(-5) = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestRunExecutesEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 100
		counts := make([]atomic.Int64, n)
		err := Run(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	for _, workers := range []int64{1, 3} {
		const n = 50
		var inFlight, peak atomic.Int64
		err := Run(int(workers), n, func(int) error {
			cur := inFlight.Add(1)
			defer inFlight.Add(-1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if p := peak.Load(); p > workers {
			t.Fatalf("observed %d concurrent tasks with %d workers", p, workers)
		}
	}
}

func TestRunReturnsLowestIndexError(t *testing.T) {
	// Tasks 3 and 17 fail; task 3 is made artificially slow so a
	// completion-order merge would report 17 first. The index-order merge
	// must still return task 3's error at every worker count.
	for _, workers := range []int{1, 2, 8} {
		err := Run(workers, 32, func(i int) error {
			switch i {
			case 3:
				time.Sleep(20 * time.Millisecond)
				return fmt.Errorf("task %d failed", i)
			case 17:
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 3 failed" {
			t.Fatalf("workers=%d: err = %v, want task 3's", workers, err)
		}
	}
}

func TestRunErrorDoesNotCancelSiblings(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 40
		var ran atomic.Int64
		err := Run(workers, n, func(i int) error {
			ran.Add(1)
			if i == 0 {
				return errors.New("boom")
			}
			return nil
		})
		if err == nil || err.Error() != "boom" {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if got := ran.Load(); got != n {
			t.Fatalf("workers=%d: %d/%d tasks ran after an early error", workers, got, n)
		}
	}
}

func TestRunCapturesPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Run(workers, 8, func(i int) error {
			if i == 5 {
				panic("kaboom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Index != 5 || pe.Value != "kaboom" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: incomplete panic capture: %+v", workers, pe)
		}
		if !strings.Contains(pe.Error(), "task 5 panicked: kaboom") {
			t.Fatalf("workers=%d: error text %q", workers, pe.Error())
		}
	}
}

func TestRunEmptyInput(t *testing.T) {
	for _, workers := range []int{1, 4} {
		if err := Run(workers, 0, func(int) error { t.Fatal("no tasks to run"); return nil }); err != nil {
			t.Fatal(err)
		}
	}
}
