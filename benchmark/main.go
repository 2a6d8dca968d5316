// Command benchmark is the mxkv serving benchmark: six workloads against
// an in-process store and kvstore.Server brought up with cmd/mxkv's
// defaults and driven over loopback TCP, four end-to-end metrics per
// workload, and a per-layer ladder. README.md in this directory says what
// each workload and metric is for; BENCHMARK.json at the repository root
// is the machine-readable summary.
//
//	bash benchmark/run.sh                          all workloads, one child process each
//	bash benchmark/run.sh -trace 1                 the same, plus ladder and span files
//	bash benchmark/run.sh -workload ycsbc_serial   one workload, in this process
//	bash benchmark/run.sh -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	outDir   string
	out      string
	detail   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: all six, each in a fresh child process)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated request streams")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase, all rounds together; BENCHMARK.json's run_seconds, which the driver passes: results of other lengths are not comparable")
	trace := flag.Int("trace", 0, "1 = also run the per-layer ladder and write span files; the last line then carries the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "smoke configuration: 10k records, 1 s timed phase in one round, short ladder")
	flag.StringVar(&o.outDir, "outdir", filepath.Join("benchmark", "out"), "directory for result, span and WAL files")
	flag.StringVar(&o.out, "out", "", "all-workloads mode: write the combined JSON document here (default <outdir>/result.json)")
	flag.StringVar(&o.detail, "detail", "", "one-workload mode: also write the full result as JSON here")
	compare := flag.Bool("compare", false, "compare two combined JSON documents: -compare old.json new.json")
	flag.Parse()
	o.trace = *trace != 0
	if o.quick {
		o.seconds = 1 // recorded in the result, so that -compare can tell a smoke run from a real one
	}

	var err error
	switch args := flag.Args(); {
	case *compare && len(args) == 2:
		err = compareFiles(os.Stdout, args[0], args[1])
	case *compare:
		err = errors.New("usage: -compare old.json new.json")
	case len(args) != 0:
		err = fmt.Errorf("unexpected arguments %q", args)
	case o.seconds <= 0:
		err = errors.New("-seconds must be positive")
	case o.workload == "":
		err = runAll(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errFailedOps makes the command exit non-zero when any request failed.
var errFailedOps = errors.New("some requests failed")

// runOne runs one workload in this process and ends its output with the
// line whoever drives the benchmark reads: the end-to-end metrics of an
// untraced run, the per-layer ones of a traced.
func runOne(o options) error {
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	res, err := runWorkload(runConfig{w: w, seed: o.seed, seconds: o.seconds, trace: o.trace, quick: o.quick, outDir: o.outDir, log: os.Stdout})
	if err != nil {
		return err
	}
	printResult(os.Stdout, res)
	if o.detail != "" {
		if err := writeJSON(o.detail, res); err != nil {
			return err
		}
	}
	metrics := res.EndToEnd
	if o.trace {
		metrics = res.PerLayer
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]wireMetric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, make(map[string]wireMetric, len(metrics))}
	for k, v := range metrics {
		line.Metrics[k] = wireMetric{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %w: %d of %d", w.name, errFailedOps, res.Failed, res.Attempted)
	}
	return nil
}

type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult prints every metric by name with its unit.
func printResult(out io.Writer, res *runResult) {
	fmt.Fprintf(out, "   %-34s %14d\n   %-34s %14d\n", "ops_attempted", res.Attempted, "ops_failed", res.Failed)
	for _, n := range res.Notes {
		fmt.Fprintf(out, "   failure: %s\n", n)
	}
	fmt.Fprintf(out, "   end to end (over the rounds' intervals and set-ups: throughput their mean, the others their median [min .. max]; at least %d latency samples per interval)\n", res.Samples)
	printMetrics(out, endToEnd, res.EndToEnd)
	fmt.Fprintln(out, "   per layer")
	printMetrics(out, perLayer, res.PerLayer)
}

func printMetrics(out io.Writer, defs []metricDef, values map[string]metricValue) {
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "   %-34s %14.4f %-6s", d.Name, v.Value, v.Unit)
		if v.Min != v.Max {
			fmt.Fprintf(out, " [%.4f .. %.4f]", v.Min, v.Max)
		}
		fmt.Fprintln(out)
	}
}

// document is the combined output of an all-workloads run, and the input
// of -compare.
type document struct {
	Env       environment           `json:"env"`
	Workloads map[string]*runResult `json:"workloads"`
}

type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	Traced     bool    `json:"traced"`
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll runs every workload in a fresh child process (a re-exec of this
// binary with -workload), so no workload inherits another's heap, and
// collects their results into one document. The end-to-end numbers always
// come from an untraced run; -trace 1 adds a second, traced run per
// workload for the ladder.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	doc := document{
		Env: environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			GitRev: gitRev(), Seed: o.seed, Seconds: o.seconds, Quick: o.quick, Traced: o.trace},
		Workloads: map[string]*runResult{},
	}
	child := func(w *workload, trace int) (*runResult, error) {
		detail := filepath.Join(o.outDir, fmt.Sprintf("detail-%s-%d.json", w.name, os.Getpid()))
		defer os.Remove(detail)
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-outdir", o.outDir, "-detail", detail,
			"-quick="+fmt.Sprint(o.quick), "-trace", fmt.Sprint(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run() // non-zero also when requests failed; the detail file says which
		var res runResult
		b, err := os.ReadFile(detail)
		if err == nil {
			err = json.Unmarshal(b, &res)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: no result from child (%v): %w", w.name, runErr, err)
		}
		return &res, nil
	}
	var failed []string
	for i := range workloads {
		w := &workloads[i]
		res, err := child(w, 0)
		if err != nil {
			return err
		}
		if o.trace {
			traced, err := child(w, 1)
			if err != nil {
				return err
			}
			// Counters stay those of the untraced run; the traced run adds
			// the ladder's metrics.
			for k, v := range traced.PerLayer {
				if _, isCounter := res.PerLayer[k]; !isCounter {
					res.PerLayer[k] = v
				}
			}
			res.Attempted += traced.Attempted
			res.Failed += traced.Failed
		}
		if res.Failed > 0 {
			failed = append(failed, w.name)
		}
		doc.Workloads[w.name] = res
	}
	out := o.out
	if out == "" {
		out = filepath.Join(o.outDir, "result.json")
	}
	if err := writeJSON(out, doc); err != nil {
		return err
	}
	fmt.Printf("\nresult written to %s\n", out)
	if len(failed) > 0 {
		return fmt.Errorf("%w in %s", errFailedOps, strings.Join(failed, ", "))
	}
	return nil
}
