package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// verdict judges one (metric, workload) pairing of a parent (a) and a
// change (b): "regressed" when b's median is worse than a's by more
// than the bound, "unresolved" when either side's spread is wider than
// the bound — such a row says nothing either way — and "ok" otherwise.
func verdict(a, b summaryRow) (change float64, v string) {
	d := a.Def
	if a.Median != 0 {
		change = (b.Median - a.Median) / a.Median
	}
	worse := change
	if d.Better == "higher" {
		worse = -change
	}
	switch {
	case a.Spread > d.Bound || b.Spread > d.Bound:
		return change, "unresolved"
	case worse > d.Bound:
		return change, "regressed"
	}
	return change, "ok"
}

// compareFiles prints one row per end-to-end (metric, workload) pairing
// found in both files and returns the exit code: 1 on any regression or
// when B failed more operations than A, else 0.
func compareFiles(out io.Writer, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fatal("%v", err)
	}
	b, err := readResults(pathB)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(out, "A: %s  commit %s  %s  nproc %d\nB: %s  commit %s  %s  nproc %d\n",
		pathA, a.Env.Commit, a.Env.CPU, a.Env.NProc, pathB, b.Env.Commit, b.Env.CPU, b.Env.NProc)
	rowsB := make(map[string]summaryRow)
	for _, r := range summaryRows(b, false) {
		rowsB[r.Workload+"\x00"+r.Def.Name] = r
	}
	exit := 0
	fmt.Fprintf(out, "%-16s %-20s %12s %-25s %12s %-25s %8s %6s  %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "change", "bound", "verdict")
	for _, ra := range summaryRows(a, false) {
		rb, ok := rowsB[ra.Workload+"\x00"+ra.Def.Name]
		if !ok {
			continue
		}
		change, v := verdict(ra, rb)
		if v == "regressed" {
			exit = 1
		}
		fmt.Fprintf(out, "%-16s %-20s %12.6g %-25s %12.6g %-25s %+7.2f%% %5.1f%%  %s\n",
			ra.Workload, ra.Def.Name, ra.Median, fmt.Sprintf("[%.5g, %.5g]", ra.Q1, ra.Q3),
			rb.Median, fmt.Sprintf("[%.5g, %.5g]", rb.Q1, rb.Q3), 100*change, 100*ra.Def.Bound, v)
	}
	fa, fb := failedFrac(a), failedFrac(b)
	fmt.Fprintf(out, "failed_frac  A %g  B %g\n", fa, fb)
	if fb > fa {
		fmt.Fprintln(out, "B failed more operations than A")
		exit = 1
	}
	return exit
}

func failedFrac(f resultsFile) float64 {
	failed, attempted := 0, 0
	for _, r := range f.Runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}
