// Command bench is the repository's benchmark of record: six workloads, from
// one-shot aggregate batches to durable serving, that print a fixed set of
// end-to-end metrics and, in a separate traced run, one set of per-layer
// metrics measured from outside the layers' public functions. BENCHMARK.json
// at the repository root names the command, the workloads and the metrics;
// README.md in this directory says why each was chosen.
//
//	bash bench/run.sh --workload maintain_dim --seed 2019 --seconds 12 --trace 0
//	bash bench/run.sh --workload all --runs 10 --out bench/out/a.json
//	bash bench/run.sh --compare bench/out/a.json bench/out/b.json
//
// One process runs one workload, so that peak memory is per workload; "all"
// starts one child process per workload. The last line of standard output of
// a single-workload run is one JSON object with the keys correct, attempted,
// failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// dataSeed seeds datagen. The --seed argument drives only what the harness
// generates (update streams, lookup keys, the verify database), so every
// seed times the same database.
const dataSeed = 2019

// defaultScale is the datagen scale of every workload: 420 k Inventory rows
// (retailer) and 625 k Sales rows (favorita).
const defaultScale = 0.005

// outDir receives trace files and the scratch directories of the durable
// workload; .gitignore names it.
var outDir = filepath.Join("bench", "out")

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
}

// allWorkloads lists every workload in report order. BENCHMARK.json carries the
// one-line reason for each.
var allWorkloads = []struct {
	name string
	run  func(*run) error
}{
	{"batch_scalar", runBatchScalar},
	{"batch_groupby", runBatchGroupBy},
	{"maintain_dim", runMaintainDim},
	{"maintain_fact", runMaintainFact},
	{"serve_mixed", runServeMixed},
	{"durable_stream", runDurableStream},
}

// run accumulates one workload run: timing samples by metric name, directly
// set values, and the operations attempted and failed.
type run struct {
	cfg config
	tr  *tracer
	// root is the span enclosing the whole run.
	root timer

	samples map[string][]float64
	values  map[string]float64
	// counts records, per end-to-end metric, the sample count behind it.
	counts map[string]int

	attempted int
	failed    int
	failures  []string
}

func newRun(cfg config) *run {
	r := &run{cfg: cfg, tr: newTracer(cfg.trace),
		samples: map[string][]float64{}, values: map[string]float64{}, counts: map[string]int{}}
	r.root = r.tr.begin(true, "bench.run", -1, -1)
	return r
}

// scope places the spans of one operation: whether they are recorded, and
// their parent and request id.
type scope struct {
	r      *run
	rec    bool
	parent int
	req    int
}

// top is the scope of spans directly under the run's root.
func (r *run) top() scope { return r.scopeOf(r.root, -1) }

// scopeOf is the scope of always-recorded spans under parent that belong to
// request req.
func (r *run) scopeOf(parent timer, req int) scope {
	return scope{r: r, rec: true, parent: parent.id, req: req}
}

func (s scope) begin(name string) timer { return s.r.tr.begin(s.rec, name, s.parent, s.req) }

// under returns the scope of tm's children.
func (s scope) under(tm timer) scope {
	s.parent = tm.id
	return s
}

// add appends one sample of a metric; the reported value is the median.
func (r *run) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// set fixes a metric's value directly (counts, shares, derived values).
func (r *run) set(name string, v float64) { r.values[name] = v }

// report sets an end-to-end metric with the number of samples behind it.
func (r *run) report(name string, v float64, n int) {
	r.values[name] = v
	r.counts[name] = n
}

// value returns the metric's set value, else the median of its samples,
// else 0 (the workload never called that layer).
func (r *run) value(name string) float64 {
	if v, ok := r.values[name]; ok {
		return v
	}
	return median(r.samples[name])
}

// op counts one attempted operation; a non-nil error counts it as failed.
func (r *run) op(err error) bool {
	r.attempted++
	if err != nil {
		r.fail("%v", err)
		return false
	}
	return true
}

// check counts one correctness check as an attempted operation.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// opScope is the scope of operation i of a timed loop under phase. A traced
// run records alternate blocks of period operations (period is the length
// of the loop's repeating pattern), so that both halves see the same mix.
func (r *run) opScope(phase timer, i, period int) scope {
	return scope{r: r, rec: (i/period)%2 == 0, parent: phase.id, req: i}
}

// addOp adds one latency sample of the workload's unit operation and, in a
// traced run, files it under the half it belongs to.
func (r *run) addOp(recorded bool, ms float64) {
	r.add("op", ms)
	if r.cfg.trace {
		if recorded {
			r.add("op.traced", ms)
		} else {
			r.add("op.untraced", ms)
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// meta records where and how a run was made.
type meta struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Scale      float64        `json:"scale"`
	DataSeed   int64          `json:"data_seed"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Samples    map[string]int `json:"samples"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// finish computes the metrics that every workload derives the same way and
// builds the result for the run's mode.
func (r *run) finish() (result, meta, error) {
	r.root.stop()
	m := meta{Workload: r.cfg.workload, Seed: r.cfg.seed, Seconds: r.cfg.seconds, Trace: r.cfg.trace,
		Scale: r.cfg.scale, DataSeed: dataSeed, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(), Samples: map[string]int{}}
	for name, xs := range r.samples {
		m.Samples[name] = len(xs)
	}
	for name, n := range r.counts {
		m.Samples[name] = n
	}
	if r.attempted < 1 {
		return result{}, m, errors.New("no operation attempted")
	}
	defs := endToEnd
	if r.cfg.trace {
		defs = perLayer
		for layer, ms := range r.tr.selfTimes() {
			r.set("self."+layer+"_ms", ms)
		}
		if un := median(r.samples["op.untraced"]); un > 0 {
			r.set("bench.trace_overhead_share", median(r.samples["op.traced"])/un-1)
		}
	} else {
		r.report("setup_s", median(r.samples["setup_s"]), len(r.samples["setup_s"]))
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, m, err
		}
		r.report("peak_rss_mb", rss, 1)
	}
	metrics := map[string]metricValue{}
	for _, d := range defs {
		v := r.value(d.Name)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s is not finite", d.Name)
			v = 0
		}
		if !r.cfg.trace && v == 0 {
			r.fail("end-to-end metric %s was not measured", d.Name)
		}
		metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}, m, nil
}

// print writes the human-readable report followed by the result line.
func (r *run) print(res result, m meta) error {
	mb, err := json.Marshal(m)
	if err != nil {
		return err
	}
	fmt.Printf("meta %s\n", mb)
	defs := endToEnd
	if r.cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		line := fmt.Sprintf("%-28s %14.6g %-8s", d.Name, res.Metrics[d.Name].Value, d.Unit)
		if native := nativeNames[r.cfg.workload][d.Name]; native != "" {
			line += fmt.Sprintf(" %s", native)
		}
		if n, ok := r.counts[d.Name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		} else if n := len(r.samples[d.Name]); n > 0 {
			line += fmt.Sprintf(" n=%d", n)
		}
		fmt.Println(line)
	}
	fmt.Printf("operations attempted %d failed %d\n", res.Attempted, res.Failed)
	for _, f := range r.failures {
		fmt.Printf("FAILED %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// execute runs the named workload in this process and returns the finished
// run with its result.
func execute(cfg config) (*run, result, meta, error) {
	for _, w := range allWorkloads {
		if w.name != cfg.workload {
			continue
		}
		r := newRun(cfg)
		if err := w.run(r); err != nil {
			return nil, result{}, meta{}, fmt.Errorf("%s: %w", cfg.workload, err)
		}
		res, m, err := r.finish()
		if err != nil {
			return nil, result{}, meta{}, fmt.Errorf("%s: %w", cfg.workload, err)
		}
		return r, res, m, nil
	}
	return nil, result{}, meta{}, fmt.Errorf("unknown workload %q", cfg.workload)
}

// runOne runs one workload and prints its report.
func runOne(cfg config) error {
	r, res, m, err := execute(cfg)
	if err != nil {
		return err
	}
	if cfg.trace {
		path, err := r.tr.write(outDir, cfg.workload)
		if err != nil {
			return err
		}
		fmt.Printf("trace %s\n", path)
	}
	return r.print(res, m)
}

// setEntry is one run in a set file written by --workload all --out.
type setEntry struct {
	Meta   meta   `json:"meta"`
	Result result `json:"result"`
}

// runAll runs every workload runs times, each in a child process of this
// binary with seeds seed, seed+1, …, and writes the set to out when named.
func runAll(cfg config, runs int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	var set []setEntry
	for _, w := range allWorkloads {
		for k := 0; k < runs; k++ {
			cmd := exec.Command(exe, "--workload", w.name, "--seed", fmt.Sprint(cfg.seed+int64(k)),
				"--seconds", fmt.Sprint(cfg.seconds), "--trace", trace)
			cmd.Stderr = os.Stderr
			start := time.Now()
			blob, err := cmd.Output()
			fmt.Printf("== %s seed %d: %.1f s wall\n%s", w.name, cfg.seed+int64(k), time.Since(start).Seconds(), blob)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			var e setEntry
			lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &e.Result); err != nil {
				return fmt.Errorf("%s: result line: %w", w.name, err)
			}
			for _, l := range lines {
				if rest, ok := strings.CutPrefix(l, "meta "); ok {
					if err := json.Unmarshal([]byte(rest), &e.Meta); err != nil {
						return fmt.Errorf("%s: meta line: %w", w.name, err)
					}
				}
			}
			set = append(set, e)
		}
	}
	if out == "" {
		return nil
	}
	blob, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	return os.WriteFile(out, append(blob, '\n'), 0o644)
}

func main() {
	var cfg config
	var trace, runs int
	var out string
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", 2019, "seed of the harness's update streams and lookup keys (held-out: 7919)")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "how long the timed phase measures")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics in place of the end-to-end ones")
	flag.IntVar(&runs, "runs", 1, "with --workload all: runs per workload, seeds seed, seed+1, ...")
	flag.StringVar(&out, "out", "", "with --workload all: write the set of results to this file")
	flag.BoolVar(&compare, "compare", false, "compare two set files: --compare a.json b.json")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.scale = defaultScale

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			err = errors.New("--compare wants two set files")
		} else {
			err = compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case cfg.seconds <= 0:
		err = errors.New("--seconds must be positive")
	case cfg.workload == "all":
		err = runAll(cfg, runs, out)
	default:
		err = runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
