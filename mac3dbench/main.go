// Command mac3dbench is the mac3d benchmark. It replays seeded
// workload traces through the simulator, checks the results, and
// prints host-side and simulated metrics by name and unit. The last
// line of its output is one JSON object:
//
//	{"correct": true, "attempted": 14, "failed": 0, "metrics": {"wall_s": {"value": 0.61, "unit": "s"}, ...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash mac3dbench/run.sh --workload sg-ideal --seed 1 --seconds 10 --trace 0
//
// --workload names one workload, or "all" to run every workload in
// one process. --trace 0 measures the end-to-end metrics untraced;
// --trace 1 makes the separate traced run that reports the per-layer
// metrics. The exit code is 0 only when every correctness check held.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mac3dbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same traces")
	seconds := fs.Float64("seconds", 10, "measuring time per workload, in seconds")
	traced := fs.Int("trace", 0, "0 for end-to-end metrics, 1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) || !(*seconds > 0) {
		fmt.Fprintln(stderr, "mac3dbench: want --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	list := benchWorkloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "mac3dbench:", err)
			return 2
		}
		list = []workload{w}
	}

	printProvenance(stdout)
	var metrics []metric
	attempted, failed := 0, 0
	for _, w := range list {
		b := newBench(w, *seed, *seconds, stdout)
		var ms []metric
		if *traced == 1 {
			ms = b.layers()
		} else {
			ms = b.endToEnd()
		}
		printTable(stdout, w.name, ms)
		if len(list) > 1 {
			for i := range ms {
				ms[i].name = w.name + "." + ms[i].name
			}
		}
		metrics = append(metrics, ms...)
		attempted += b.attempted
		failed += b.failed
	}
	if attempted == 0 {
		attempted, failed = 1, 1
	}
	if err := printResult(stdout, attempted, failed, metrics); err != nil {
		fmt.Fprintln(stderr, "mac3dbench:", err)
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// printProvenance records the host the numbers were measured on.
func printProvenance(w io.Writer) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, modified := "", ""
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			commit = rev
			if modified == "true" {
				commit += "+modified"
			}
		}
	}
	fmt.Fprintf(w, "# host: num_cpu=%d gomaxprocs=%d go=%s %s/%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}

func printTable(w io.Writer, workload string, ms []metric) {
	fmt.Fprintf(w, "# %s metrics:\n", workload)
	for _, m := range ms {
		fmt.Fprintf(w, "%-32s %16.6g %s\n", m.name, m.value, m.unit)
	}
}

// printResult writes the final JSON line.
func printResult(w io.Writer, attempted, failed int, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, map[string]value{}}
	for _, m := range ms {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// note prints an explanatory line that is not a metric.
func note(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, "# "+format+"\n", args...)
}
