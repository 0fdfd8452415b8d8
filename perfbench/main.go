// Command perfbench is the repository's benchmark. It runs one named
// workload against the real program, checks every output against direct
// library calls, and prints the result as one JSON line:
//
//	bash perfbench/run.sh --workload plan-cold --seed 7 --seconds 30 --trace 0
//
// Workloads: plan-cold (closed-loop cold /v1/plan sweeps), api-mix
// (open-loop Poisson mix of the small endpoints over a skewed key space)
// and simulate (Algorithm 1 worlds through the algs registry). The server
// workloads start cmd/parmmd as a separate process. With --trace 1 the run
// instead replays every workload's generated inputs through each layer's
// public functions and reports per-layer times, the residual they leave
// unexplained, and the tracing overhead. See perfbench/README.md.
//
//	perfbench compare old.json new.json
//
// compares two saved results and refuses when their environment stamps
// differ.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Workload names.
const (
	planCold = "plan-cold"
	apiMix   = "api-mix"
	simulate = "simulate"
)

var workloads = []string{planCold, apiMix, simulate}

// bench is one invocation's settings.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	outDir   string
	parmmd   string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what one workload or traced run hands back.
type report struct {
	tally   tally
	metrics map[string]metric
	// lines are printed before the result: the workload's own names for
	// the shared end-to-end metrics, and sample counts.
	lines []string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// e2e fills the six end-to-end metrics every workload reports, and prints
// them under the workload's own names as well.
func (r *report) e2e(names [3]string, p50, tail, rate, setup, rss float64) {
	ok := 1.0
	if n := r.tally.attempted(); n > 0 {
		ok = float64(n-r.tally.failed()) / float64(n)
	}
	r.set("p50_ms", "ms", p50)
	r.set("tail_ms", "ms", tail)
	r.set("throughput_per_s", "1/s", rate)
	r.set("ok_ratio", "ratio", ok)
	r.set("setup_s", "s", setup)
	r.set("peak_rss_mb", "MB", rss)
	units := [3]string{"ms", "ms", "1/s"}
	for i, v := range []float64{p50, tail, rate} {
		r.note("%s %.6g %s", names[i], v, units[i])
	}
	r.note("failed_ratio %.6g ratio", 1-ok)
	r.note("setup_s %.6g s", setup)
	r.note("peak_rss_mb %.6g MB", rss)
	r.note("outcomes %v", r.tally)
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 15

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Uint64("seed", 1, "seed the inputs and schedules are generated from")
	seconds := flag.Int("seconds", 30, "how long the run measures")
	traceFlag := flag.Int("trace", 0, "1: replay the inputs through each layer and report per-layer metrics")
	parmmd := flag.String("parmmd", "", "path of the parmmd binary built from this checkout")
	out := flag.String("out", ".bench_build", "directory for logs, spans and saved results")
	flag.Parse()

	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	switch {
	case !known:
		fail(fmt.Errorf("unknown workload %q (valid: %s)", *workload, strings.Join(workloads, ", ")))
	case *seconds < 1:
		fail(fmt.Errorf("--seconds must be at least 1, got %d", *seconds))
	case *traceFlag != 0 && *traceFlag != 1:
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag))
	case *parmmd == "":
		fail(fmt.Errorf("--parmmd is required (run through perfbench/run.sh)"))
	}
	b := &bench{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, outDir: *out, parmmd: *parmmd}

	var rep *report
	var err error
	switch {
	case *traceFlag == 1:
		rep, err = b.traced()
	case *workload == planCold:
		rep, err = b.planCold()
	case *workload == apiMix:
		rep, err = b.apiMix()
	default:
		rep, err = b.simulate()
	}
	res, err := resultOf(rep, err)
	if err != nil {
		fail(err)
	}
	st := newStamp(b, *traceFlag == 1)
	stampJSON, _ := json.Marshal(st)
	fmt.Printf("stamp %s\n", stampJSON)
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	if err := saveResult(b, st, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving result:", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// resultOf turns what a workload returned into its result. A run that
// could not produce its metrics because outputs were wrong still reports,
// as incorrect, and the workload's error goes to standard error; any other
// error leaves no result.
func resultOf(rep *report, runErr error) (result, error) {
	if runErr != nil {
		if rep == nil || rep.tally[classWrong] == 0 {
			return result{}, runErr
		}
		fmt.Fprintln(os.Stderr, "perfbench:", runErr)
	}
	res := result{
		Correct:   rep.tally[classWrong] == 0,
		Attempted: rep.tally.attempted(),
		Failed:    rep.tally.failed(),
		Metrics:   make(map[string]metric, len(rep.metrics)),
	}
	// Failed operations count as +Inf latency, and a sample that failures
	// left empty has a NaN median; JSON has neither. An incorrect run
	// leaves such a metric out; any other run stops without a result.
	for name, m := range rep.metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			if res.Correct {
				return result{}, fmt.Errorf("metric %s is %v", name, m.Value)
			}
			continue
		}
		res.Metrics[name] = m
	}
	return res, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// saved is a result file under <out>/results, the input of compare.
type saved struct {
	Stamp  stamp  `json:"stamp"`
	Result result `json:"result"`
}

func saveResult(b *bench, st stamp, res result) error {
	dir := filepath.Join(b.outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(saved{st, res}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d.json", b.workload, b.seed)
	if st.Trace {
		name = fmt.Sprintf("%s-seed%d-traced.json", b.workload, b.seed)
	}
	return os.WriteFile(filepath.Join(dir, name), append(blob, '\n'), 0o644)
}

// compareMain prints the per-metric change from one saved result to
// another, refusing (exit 2) when their environment stamps differ.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare old.json new.json")
		return 2
	}
	var runs [2]saved
	for i, path := range args {
		blob, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(blob, &runs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: reading %s: %v\n", path, err)
			return 2
		}
	}
	if diffs := runs[0].Stamp.envDiff(runs[1].Stamp); len(diffs) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare results from different environments: %s\n",
			strings.Join(diffs, "; "))
		return 2
	}
	names := make([]string, 0, len(runs[1].Result.Metrics))
	for name := range runs[1].Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-40s %14s %14s %9s\n", "metric", "old", "new", "change")
	for _, name := range names {
		nm := runs[1].Result.Metrics[name]
		om, ok := runs[0].Result.Metrics[name]
		if !ok {
			fmt.Printf("%-40s %14s %14.6g %9s\n", name, "-", nm.Value, "new")
			continue
		}
		change := "n/a"
		if om.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(nm.Value-om.Value)/om.Value)
		}
		fmt.Printf("%-40s %14.6g %14.6g %9s %s\n", name, om.Value, nm.Value, change, nm.Unit)
	}
	return 0
}
