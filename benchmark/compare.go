package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Verdicts of -compare.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares one end-to-end metric of two runs. change is the relative
// move of the value, positive when it got worse. The verdict is
// "unresolved" when the move is beyond the bound but cannot be told from
// noise: either run's own spread (max-min over its value) exceeds the
// bound and the two ranges overlap.
func judge(def metricDef, old, cur metricValue) (change float64, verdict string) {
	change = (cur.Value - old.Value) / old.Value
	if def.Better == "higher" {
		change = -change
	}
	if change <= def.Bound && change >= -def.Bound {
		return change, verdictSame
	}
	spreadOf := func(v metricValue) float64 { return (v.Max - v.Min) / v.Value }
	noisy := spreadOf(old) > def.Bound || spreadOf(cur) > def.Bound
	overlap := old.Min <= cur.Max && cur.Min <= old.Max
	switch {
	case noisy && overlap:
		return change, verdictUnresolved
	case change > 0:
		return change, verdictWorse
	default:
		return change, verdictBetter
	}
}

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads in document", path)
	}
	return &d, nil
}

var errWorse = errors.New("the new run is worse than the old one")

// compareFiles prints, per workload and end-to-end metric, both values
// with their spreads, the move, the bound and a verdict, and fails on any
// "worse" or on a higher share of failed requests.
func compareFiles(out io.Writer, oldPath, newPath string) error {
	old, err := readDocument(oldPath)
	if err != nil {
		return err
	}
	cur, err := readDocument(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "old: %s  rev %s  seed %d  %s  nproc %d  GOMAXPROCS %d\n", oldPath, old.Env.GitRev, old.Env.Seed, old.Env.GoVersion, old.Env.NProc, old.Env.GOMAXPROCS)
	fmt.Fprintf(out, "new: %s  rev %s  seed %d  %s  nproc %d  GOMAXPROCS %d\n", newPath, cur.Env.GitRev, cur.Env.Seed, cur.Env.GoVersion, cur.Env.NProc, cur.Env.GOMAXPROCS)
	// Runs of different lengths or sizes measure different things; the seed
	// may differ (another request stream), which the header shows.
	if o, n := old.Env, cur.Env; o.Seconds != n.Seconds || o.Quick != n.Quick || o.Traced != n.Traced {
		return fmt.Errorf("the documents are not comparable: seconds %g/%g, quick %v/%v, traced %v/%v",
			o.Seconds, n.Seconds, o.Quick, n.Quick, o.Traced, n.Traced)
	}
	fmt.Fprintf(out, "%-16s %-22s %34s %34s %8s %6s  %s\n", "workload", "metric", "old value [min .. max]", "new value [min .. max]", "change", "bound", "verdict")
	worse := 0
	for i := range workloads {
		name := workloads[i].name
		o, n := old.Workloads[name], cur.Workloads[name]
		if o == nil || n == nil {
			return fmt.Errorf("workload %s is missing from one of the documents", name)
		}
		for _, def := range endToEnd {
			ov, nv := o.EndToEnd[def.Name], n.EndToEnd[def.Name]
			if ov.Value <= 0 || nv.Value <= 0 {
				return fmt.Errorf("%s: %s is missing or zero in one of the documents (old %g, new %g)", name, def.Name, ov.Value, nv.Value)
			}
			change, verdict := judge(def, ov, nv)
			if verdict == verdictWorse {
				worse++
			}
			cell := func(v metricValue) string { return fmt.Sprintf("%.4g [%.4g .. %.4g]", v.Value, v.Min, v.Max) }
			fmt.Fprintf(out, "%-16s %-22s %34s %34s %+7.2f%% %5.0f%%  %s\n", name, def.Name, cell(ov), cell(nv), 100*change, 100*def.Bound, verdict)
		}
		oldFail, newFail := ratio(float64(o.Failed), float64(o.Attempted)), ratio(float64(n.Failed), float64(n.Attempted))
		if newFail > oldFail {
			worse++
			fmt.Fprintf(out, "%-16s %-22s %34.6f %34.6f %24s\n", name, "ops_failed/attempted", oldFail, newFail, verdictWorse)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%w: %d verdicts", errWorse, worse)
	}
	return nil
}
