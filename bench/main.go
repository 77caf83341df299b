// Command bench is the repository's benchmark: six workloads over the
// simulator, the sweep runner and the scheduling daemon, eight end-to-end
// metrics every workload reports, and a per-layer table measured from
// outside the program by timing calls into each layer's public functions.
// README.md in this directory is the glossary; BENCHMARK.json at the
// repository root is the machine-readable contract.
//
// Usage (from the repository root):
//
//	bash bench/run.sh                                   # every workload, untraced then traced
//	bash bench/run.sh -workload replay_theta -seed 2    # one workload
//	bash bench/run.sh -workload sweep_paper -trace 1 -trace-out spans.jsonl
//	bash bench/run.sh -out A.jsonl                      # append one record per run
//	bash bench/run.sh -compare A.jsonl B.jsonl          # apply each metric's bound
//	bash bench/run.sh -update-golden                    # rewrite bench/golden.json (seed 1)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
)

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        int
	traceOut     string
	out          string
	updateGolden bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all, each in its own process, untraced then traced)")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long one run measures")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced run")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans here as JSON lines")
	flag.StringVar(&o.out, "out", "", "append one JSON record per run to this file")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "rewrite bench/golden.json from this run (seed 1) and print what changed")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments, applying each end-to-end metric's bound")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json")
	probe := flag.Bool("probe-setup", false, "run the workload's set-up and exit (used to time set-up)")
	hostProbe := flag.Bool("host-probe", false, "time the reference kernel on request (the child process behind reference seconds)")
	sweepArg := flag.String("sweep-child", "", "run one sweep described by this JSON and print its measurements (used by sweep_paper)")
	flag.Parse()

	var err error
	switch {
	case *printManifest:
		var b []byte
		if b, err = manifest(); err == nil {
			_, err = os.Stdout.Write(b)
		}
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two files")
			break
		}
		var worse bool
		if worse, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	case *probe:
		err = probeOnly(o)
	case *hostProbe:
		err = hostProbeMain()
	case *sweepArg != "":
		err = sweepChild(*sweepArg)
	case o.workload == "":
		err = runAll(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func (o options) spec() (workloadSpec, error) {
	spec, ok := workloadByName(o.workload)
	if !ok {
		return spec, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.updateGolden && o.seed != 1 {
		return spec, fmt.Errorf("-update-golden needs -seed 1")
	}
	if o.trace != 0 && o.trace != 1 {
		return spec, fmt.Errorf("-trace is 0 or 1")
	}
	return spec, nil
}

func probeOnly(o options) error {
	spec, err := o.spec()
	if err != nil {
		return err
	}
	r := &run{spec: spec, seed: o.seed}
	_, err = workloadTable[spec.Name].setup(r)
	return err
}

// record is one line of an -out file.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Go       string  `json:"go"`
	NumCPU   int     `json:"nproc"`
	result
}

// runOne measures one workload in this process and prints the result
// object as the last line of standard output.
func runOne(o options) error {
	spec, err := o.spec()
	if err != nil {
		return err
	}
	gold, err := loadGoldens(spec.Name, o.updateGolden)
	if err != nil {
		return err
	}
	fmt.Printf("%s  seed %d  %.3gs  trace %d  (%s, nproc %d)\n",
		spec.Name, o.seed, o.seconds, o.trace, runtime.Version(), runtime.NumCPU())
	res, errs, err := runWorkload(spec, o.seed, o.seconds, o.trace == 1, gold, o.traceOut, os.Stdout)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, e := range errs {
		fmt.Println("  FAILED:", e)
	}
	if o.updateGolden && o.trace == 0 && res.Correct {
		if err := gold.save(spec.Name, os.Stdout); err != nil {
			return err
		}
	}
	if o.out != "" {
		if err := appendRecord(o.out, record{spec.Name, o.seed, o.seconds, o.trace,
			runtime.Version(), runtime.NumCPU(), res}); err != nil {
			return err
		}
	}
	fmt.Println(res.line())
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in its own child process, so caches, set-up
// and peak memory are per workload: untraced first, then traced.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for trace := 0; trace <= 1; trace++ {
		for _, w := range workloads {
			args := []string{"-workload", w.Name,
				"-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(trace)}
			if o.out != "" {
				args = append(args, "-out", o.out)
			}
			if o.updateGolden {
				args = append(args, "-update-golden")
			}
			if o.traceOut != "" && trace == 1 {
				args = append(args, "-trace-out", o.traceOut+"."+w.Name)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (trace %d): %v\n", w.Name, trace, err)
				failed++
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d run(s) failed", failed)
	}
	return nil
}
