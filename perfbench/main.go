// Command perfbench is the repository's benchmark. One invocation runs
// one named workload against the program's public packages for a fixed
// number of seconds, checks every output the program produced, and
// prints each metric by name with its unit. The last line of standard
// output is a JSON summary:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run instead times its own calls into each layer with spans and
// reports per-layer metrics, writing the spans as Chrome trace-event
// JSON to .bench_build/perfbench-<workload>.trace.json. Run it from the
// repository root:
//
//	bash perfbench/run.sh --workload sbr-bulk --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string // printed beside the value, e.g. a percentile's sample count
}

// report is what a workload run returns.
type report struct {
	Attempted, Failed int
	Metrics           []metric
	Spans             []span // traced runs only
	Info              []string
}

func (r *report) add(name string, v float64, unit string) { r.addNote(name, v, unit, "") }

func (r *report) addNote(name string, v float64, unit, note string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit, Note: note})
}

func (r *report) infof(format string, args ...any) {
	r.Info = append(r.Info, fmt.Sprintf(format, args...))
}

// fail counts one failed or wrong output and keeps the first few reasons.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if r.Failed <= 5 {
		r.infof("FAIL: "+format, args...)
	}
}

// config is one invocation's settings.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
}

type workloadFunc func(ctx context.Context, cfg config) (*report, error)

var workloads = map[string]workloadFunc{
	"sbr-bulk":    runSBRBulk,
	"obr-cascade": runOBRCascade,
	"live-tcp":    runLiveTCP,
	"vtime-flood": runVTimeFlood,
}

// stamp identifies the build, host and run a result came from.
type stamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Runs       int     `json:"runs"`
	Start      string  `json:"start"`
	End        string  `json:"end"`
}

func newStamp(cfg config, start time.Time) stamp {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return stamp{
		Commit: commit, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), NProc: runtime.NumCPU(),
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace, Runs: 1,
		Start: start.UTC().Format(time.RFC3339Nano),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var trace int
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	flag.StringVar(&cfg.Workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	w, ok := workloads[cfg.Workload]
	if !ok || cfg.Seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	cfg.Trace = trace == 1

	start := time.Now()
	st := newStamp(cfg, start)
	if cfg.Trace {
		st.Runs = 2 // an untraced and a traced pass
	}
	rep, err := w(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		return 1
	}
	st.End = time.Now().UTC().Format(time.RFC3339Nano)
	stampJSON, _ := json.Marshal(st) // a struct of strings and numbers always encodes
	fmt.Printf("stamp %s\n", stampJSON)
	for _, line := range rep.Info {
		fmt.Println(line)
	}
	if cfg.Trace {
		path := filepath.Join(".bench_build", "perfbench-"+cfg.Workload+".trace.json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		if err := writeChromeTrace(path, rep.Spans, traceExportLimit, st); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Printf("trace: %d spans recorded, first %d written to %s\n", len(rep.Spans), min(len(rep.Spans), traceExportLimit), path)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: rep.Failed == 0 && rep.Attempted > 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]jm{}}
	for _, m := range rep.Metrics {
		line := fmt.Sprintf("%-34s %16.6g %s", m.Name, m.Value, m.Unit)
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Println(line)
		out.Metrics[m.Name] = jm{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// traceExportLimit bounds the spans written to the trace file so a
// traced run leaves a file Perfetto opens quickly; every recorded span
// still feeds the per-layer metrics.
const traceExportLimit = 50000
