package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// runAgree is -agree: the untraced suite twice, every workload in a
// fresh process, the second suite in the reverse workload order, and a
// non-zero exit if any end-to-end metric differs between the two by more
// than its own bound. It answers "does this benchmark, on this host,
// today, repeat within what it promises" before anyone compares two
// commits with it. A run that flags itself DISTURBED (most of its
// repetitions shared the core with something) is thrown away and
// repeated, up to agreeAttempts times, as a person reading it would.
func runAgree(out io.Writer, opts runOptions) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	order := make([]workloadSpec, len(workloads))
	copy(order, workloads)
	var suites [2]map[string]result
	for s := range suites {
		suites[s] = map[string]result{}
		for _, w := range order {
			var res result
			for attempt := 1; ; attempt++ {
				fmt.Fprintf(out, "suite %d: %s\n", s+1, w.name)
				var disturbed bool
				if res, disturbed, err = runChild(nil, exe, w.name, opts); err != nil {
					return fmt.Errorf("suite %d, %s: %w", s+1, w.name, err)
				}
				if !disturbed || attempt == agreeAttempts {
					break
				}
				fmt.Fprintf(out, "  disturbed run thrown away (attempt %d of %d)\n", attempt, agreeAttempts)
			}
			if !res.Correct {
				return fmt.Errorf("suite %d, %s: %d of %d ops failed", s+1, w.name, res.Failed, res.Attempted)
			}
			suites[s][w.name] = res
		}
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}

	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tfirst\tsecond\tdiff\tbound\t\t")
	disagreements := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := suites[0][w.name].Metrics[d.name].Value, suites[1][w.name].Metrics[d.name].Value
			diff := relDiff(a, b)
			verdict := ""
			if !(diff <= d.bound) {
				verdict = "DISAGREE"
				disagreements++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.2f%%\t%.0f%%\t%s\t\n",
				w.name, d.name, formatValue(a), formatValue(b), 100*diff, 100*d.bound, verdict)
		}
	}
	tw.Flush()
	if disagreements > 0 {
		return fmt.Errorf("%d end-to-end metrics differ between two runs of the same code by more than their bound", disagreements)
	}
	fmt.Fprintln(out, "agree: every end-to-end metric repeats within its bound")
	return nil
}

// agreeAttempts bounds how often -agree repeats a disturbed run.
const agreeAttempts = 3

// relDiff is |a-b| over their mean.
func relDiff(a, b float64) float64 {
	mean := (a + b) / 2
	if mean == 0 {
		return math.Abs(a - b)
	}
	return math.Abs(a-b) / math.Abs(mean)
}
