// Command pulsebench is the repository benchmark: it drives pulsed's
// default configuration through one of three workloads and prints every
// end-to-end metric (or, with -trace 1, every per-layer metric) as the last
// line of standard output, after checking that the outputs are correct.
//
//	pulsebench -workload fleet -seed 3 -seconds 20 -trace 0
//
// Workloads: serve (the real pulsed binary over loopback HTTP), fleet
// (a 100 000-slot in-process replica, minute barrier bound) and churn
// (a 10 000-function replica under steady registration churn). See
// README.md in this directory for what each measures and why.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"time"
)

// buildDir holds everything a run writes: binaries, span files and the
// full result records. It is relative to the repository root, where the
// benchmark runs.
const buildDir = ".bench_build"

// run is one benchmark invocation's shared state.
type run struct {
	workload string
	seed     int64
	seconds  int
	traced   bool

	began     time.Time
	m         *metrics
	attempted int
	failed    int
	problems  []string // failed output checks
}

// phase logs progress to standard error with the time since the start.
func (r *run) phase(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pulsebench: %6.2fs %s %s\n", time.Since(r.began).Seconds(), r.workload, fmt.Sprintf(format, args...))
}

// op counts one attempted operation; a non-nil err counts it as failed.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintln(os.Stderr, "pulsebench: operation failed:", err)
		}
	}
}

// check records a failed output check.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		if len(r.problems) < 20 {
			r.problems = append(r.problems, msg)
		}
	}
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workload := flag.String("workload", "", "serve, fleet or churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "pulsebench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	r := &run{workload: *workload, seed: *seed, seconds: *seconds, traced: *traceFlag == 1, m: newMetrics(), began: time.Now()}
	var err error
	switch *workload {
	case "serve":
		err = runServe(r)
	case "fleet":
		err = runInProcess(r, fleetShape)
	case "churn":
		err = runInProcess(r, churnShape)
	default:
		err = fmt.Errorf("unknown workload %q (serve, fleet or churn)", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pulsebench:", err)
		return 1
	}
	correct := len(r.problems) == 0 && r.failed == 0 && r.attempted > 0
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "pulsebench: check failed:", p)
	}
	if err := report(r, correct); err != nil {
		fmt.Fprintln(os.Stderr, "pulsebench:", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// report prints the human-readable table and the run record, writes the
// record under buildDir/results, and prints the result line last.
func report(r *run, correct bool) error {
	meta := map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.seconds,
		"trace":      r.traced,
		"host_cpus":  goruntime.NumCPU(),
		"gomaxprocs": goruntime.GOMAXPROCS(0),
		"go":         goruntime.Version(),
		"commit":     commit(),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
	for _, name := range r.m.order {
		mt := r.m.m[name]
		fmt.Printf("%-44s %16.6g %-8s n=%d\n", name, mt.Value, mt.Unit, mt.N)
	}
	if r.traced {
		printOverhead(r)
	}
	full := map[string]any{
		"meta": meta, "correct": correct, "attempted": r.attempted, "failed": r.failed,
		"problems": r.problems, "metrics": r.m.m,
	}
	rec, err := json.Marshal(full)
	if err != nil {
		return err
	}
	fmt.Printf("record %s\n", rec)
	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, recordName(r.workload, r.seed, r.traced)), append(rec, '\n'), 0o644); err != nil {
		return err
	}

	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]valueUnit{}
	for name, mt := range r.m.m {
		out[name] = valueUnit{mt.Value, mt.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{correct, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// recordName is the file a run's record is written to under
// buildDir/results.
func recordName(workload string, seed int64, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, t)
}

// printOverhead compares each traced end-to-end timing with the untraced
// run of the same workload and seed, when that run's record is on disk.
func printOverhead(r *run) {
	data, err := os.ReadFile(filepath.Join(buildDir, "results", recordName(r.workload, r.seed, false)))
	if err != nil {
		fmt.Printf("tracing overhead: no untraced record for %s seed %d (run it with -trace 0 first)\n", r.workload, r.seed)
		return
	}
	var untraced struct {
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal(data, &untraced); err != nil {
		fmt.Printf("tracing overhead: %v\n", err)
		return
	}
	for _, name := range r.m.order {
		base, ok := strings.CutPrefix(name, "traced.")
		u, found := untraced.Metrics[base]
		if !ok || !found || u.Value == 0 {
			continue
		}
		t := r.m.m[name].Value
		fmt.Printf("tracing overhead %-24s untraced %12.6g traced %12.6g %+7.1f%%\n", base, u.Value, t, 100*(t-u.Value)/u.Value)
	}
}

// commit identifies the code under test: the git revision when the
// checkout is a repository, otherwise a digest of the Go sources and
// module files, which any two checkouts of one commit share.
func commit() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if strings.HasPrefix(ref, "ref: ") {
			if id, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
				return strings.TrimSpace(string(id))
			}
		} else {
			return ref
		}
	}
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (path == buildDir || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\n", f)
		_, _ = io.Copy(h, fh)
		fh.Close()
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
