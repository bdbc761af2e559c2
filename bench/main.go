// Command bench is windowbench: the end-to-end and per-layer benchmark of
// windowd. It builds ./cmd/windowd, starts one fresh server process per
// workload, drives it over loopback from one closed-loop client on one
// connection, and — in a separate traced pass — times calls into each
// layer's public functions in-process on the same generated data. See
// README.md for the workload and metric catalogue.
//
// The benchmark driver runs it as
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. Without --trace both passes
// run for every selected workload and one JSON document holds every metric.
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
	"slices"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads: the metric
// catalogue, and the bounds -repeat holds the spreads against.
type benchmarkFile struct {
	RunSeconds float64 `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		repo     = fs.String("repo", ".", "root of the holistic checkout (holds BENCHMARK.json and cmd/windowd)")
		work     = fs.String("work", ".bench_build", "scratch directory for the server binary and generated inputs")
		only     = fs.String("only", "", "comma-separated workloads to run (default: all)")
		one      = fs.String("workload", "", "single workload to run; with --trace, prints the driver's result line")
		seed     = fs.Int64("seed", 1, "seed of the generated data and parameter order")
		seconds  = fs.Float64("seconds", 0, "run length fixing the timed operation counts (default: BENCHMARK.json run_seconds)")
		trace    = fs.Int("trace", -1, "0: end-to-end pass only, 1: traced per-layer pass only (default: both)")
		repeat   = fs.Int("repeat", 1, "run the selection N times on seeds seed…seed+N-1 and report each metric's spread")
		traceOut = fs.String("trace-out", "", "write the traced pass's spans here as Chrome trace-event JSON")
		smoke    = fs.Bool("smoke", false, "tiny tables, three operations per workload, in-process server")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var bf benchmarkFile
	b, err := os.ReadFile(filepath.Join(*repo, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if *seconds <= 0 {
		*seconds = bf.RunSeconds
	}

	names := *only
	if *one != "" {
		names = *one
	}
	var selected []*workload
	for _, w := range workloads() {
		if names == "" || slices.Contains(strings.Split(names, ","), w.Name) {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || (names != "" && len(selected) != len(strings.Split(names, ","))) {
		return fmt.Errorf("unknown workload in %q", names)
	}

	absWork, err := filepath.Abs(*work)
	if err != nil {
		return err
	}
	h := &harness{work: absWork, seconds: *seconds, smoke: *smoke, setups: 3, tr: newTracer(), log: stderr}
	if *smoke {
		h.launch, h.setups = inProcessLauncher(), 1
	} else {
		bin := filepath.Join(absWork, "bin", "windowd")
		build := exec.Command("go", "build", "-o", bin, "./cmd/windowd")
		build.Dir = *repo
		if out, err := build.CombinedOutput(); err != nil {
			return fmt.Errorf("building windowd: %v\n%s", err, out)
		}
		h.launch = processLauncher(bin)
	}
	// Ingest target directories are per run; generated inputs stay cached.
	defer os.RemoveAll(filepath.Join(absWork, "run"))

	// runs[i][workload] holds repetition i's metrics, both passes merged.
	runs := make([]map[string]*result, *repeat)
	var failure error
	for i := range runs {
		runs[i] = map[string]*result{}
		h.seed = *seed + int64(i)
		for _, w := range selected {
			h.tr.workload = w.Name
			merged := &result{Correct: true, Metrics: map[string]metric{}}
			for _, pass := range []struct {
				on  bool
				run func(*workload) (result, error)
			}{{*trace != 1, h.endToEnd}, {*trace != 0, h.traced}} {
				if !pass.on {
					continue
				}
				res, err := pass.run(w)
				if err != nil {
					return fmt.Errorf("%s: %w", w.Name, err)
				}
				merged.Correct = merged.Correct && res.Correct
				merged.Attempted += res.Attempted
				merged.Failed += res.Failed
				for k, v := range res.Metrics {
					merged.Metrics[k] = v
				}
			}
			if !merged.Correct {
				failure = errors.Join(failure, fmt.Errorf("%s: wrong answers", w.Name))
			}
			runs[i][w.Name] = merged
			report(stderr, w.Name, merged)
		}
	}
	if *traceOut != "" {
		if err := h.tr.writeChrome(*traceOut); err != nil {
			return err
		}
	}
	if failure != nil {
		return failure
	}

	enc := json.NewEncoder(stdout)
	switch {
	case *repeat > 1:
		return reportSpread(stdout, &bf, selected, runs)
	case *one != "" && *trace >= 0:
		return enc.Encode(runs[0][*one])
	default:
		return enc.Encode(map[string]any{"seed": *seed, "seconds": *seconds, "workloads": runs[0]})
	}
}

// report prints one workload's metrics for a human.
func report(w io.Writer, name string, r *result) {
	fmt.Fprintf(w, "%s: attempted %d, failed %d, correct %v\n", name, r.Attempted, r.Failed, r.Correct)
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
}

// reportSpread prints each metric's min, median, max and relative spread
// over the repetitions, and fails when an end-to-end metric spreads wider
// than the bound BENCHMARK.json gives it.
func reportSpread(w io.Writer, bf *benchmarkFile, selected []*workload, runs []map[string]*result) error {
	bounds := map[string]float64{}
	var order []string
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
		order = append(order, m.Name)
	}
	for _, m := range bf.PerLayer {
		order = append(order, m.Name)
	}
	var failure error
	fmt.Fprintf(w, "| workload | metric | unit | min | median | max | spread | bound |\n|---|---|---|---|---|---|---|---|\n")
	for _, wl := range selected {
		for _, name := range order {
			var vals []float64
			unit := ""
			for _, r := range runs {
				if m, ok := r[wl.Name].Metrics[name]; ok {
					vals = append(vals, m.Value)
					unit = m.Unit
				}
			}
			if len(vals) == 0 {
				continue
			}
			sp := spread(vals)
			bound := "—"
			if b, ok := bounds[name]; ok {
				bound = fmt.Sprintf("%.0f %%", 100*b)
				if sp > b {
					failure = errors.Join(failure, fmt.Errorf("%s %s: spread %.1f %% exceeds its bound %s", wl.Name, name, 100*sp, bound))
				}
			}
			fmt.Fprintf(w, "| %s | %s | %s | %.4g | %.4g | %.4g | %.1f %% | %s |\n",
				wl.Name, name, unit, slices.Min(vals), median(vals), slices.Max(vals), 100*sp, bound)
		}
	}
	return failure
}
