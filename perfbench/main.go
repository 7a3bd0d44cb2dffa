// Command perfbench is GDMP's end-to-end replication benchmark. It runs
// a whole in-process grid (internal/testbed) in one process, drives one
// workload for a fixed time, checks every replica it lands, and prints
// each metric by name with its unit. The last line of standard output is
// a JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload small-pull --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 a
// separate traced run reports the per-layer metrics, timing each pull
// stage at the benchmark's own calls into the modules.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"gdmp/internal/obs"
)

// The metrics every run prints, in BENCHMARK.json's order: end-to-end
// with --trace 0, per-layer with --trace 1.
var (
	e2eNames = []string{"setup_s", "op_p50_ms", "op_tail_ms", "ops_per_s", "mb_per_s", "max_rss_mb"}

	layerNames = []string{
		"gsi.handshakes_per_pull", "gsi.handshake_ms", "rpc.dial_ms", "rpc.stage_call_ms",
		"gridftp.dial_ms", "gridftp.get_ms", "gridftp.get_mb_per_s", "gridftp.crc_ms",
		"gridftp.sessions_per_pull", "gridftp.data_conns_per_pull", "gridftp.server_bytes_per_user_byte",
		"conn.per_pull",
		"parity.encode_ms", "parity.sidecars_per_pull",
		"journal.append_ms", "journal.appends_per_pull", "journal.bytes_per_pull",
		"replica.lookup_ms", "replica.ops_per_pull",
		"mss.hit_ratio", "mss.evictions_per_op", "mss.stage_p50_ms",
		"xfer.queue_wait_ms", "xfer.max_queue_depth", "admission.wait_ms", "admission.rejected",
		"health.stalls", "retry.attempts_per_pull", "retry.exhausted",
		"wan.dials_per_pull", "wan.rtts_per_pull",
		"core.get_ms", "core.unattributed_ms", "core.publish_p50_ms", "trace.overhead_ratio",
		"e2e.fail_ratio", "fanout.sustained_rate", "fanout.pending_residue", "fanout.generator_late_ms",
	}
)

type metric struct {
	name  string
	value float64
	unit  string
}

type metrics []metric

func (m *metrics) add(name string, value float64, unit string) {
	*m = append(*m, metric{name, value, unit})
}

// result is what one run prints.
type result struct {
	correct           bool
	attempted, failed int
	e2e, layer        metrics
	lines             []string
}

func (r *result) notef(format string, args ...interface{}) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so
// that peakRSSMB covers only the measured phase, not set-up or warm-up.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) since
// the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

func main() {
	name := flag.String("workload", "", "workload to run: small-pull, bulk-pull, zipf-cache or fanout-wan")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	workDir := flag.String("dir", ".bench_build", "scratch directory for the grids' data")
	flag.Parse()

	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments; workloads: %s\n", workloadNames())
		os.Exit(2)
	}
	base, err := filepath.Abs(filepath.Join(*workDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(base, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &runner{
		workload: w.name,
		in:       inputs{seed: *seed},
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		base:     base,
		res:      &result{correct: true},
		// The testbed's central catalog records into the default registry.
		catalog: obs.Default,
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("workload %s: %s\n", w.name, w.why)
	runErr := w.run(context.Background(), r)
	os.RemoveAll(base)
	for _, l := range r.res.lines {
		fmt.Println(l)
	}
	if runErr != nil {
		// A failed check or a broken grid fails the run: report it as
		// incorrect rather than dropping the sample.
		fmt.Println("error:", runErr)
		r.res.correct = false
	}
	out := jsonResult{Correct: r.res.correct, Attempted: r.res.attempted, Failed: r.res.failed, Metrics: map[string]jsonMetric{}}
	list, want := r.res.e2e, e2eNames
	if r.trace {
		list, want = r.res.layer, layerNames
	}
	for _, m := range list {
		fmt.Printf("%-36s %14.6f %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	if runErr == nil && !sameSet(want, out.Metrics) {
		fmt.Fprintf(os.Stderr, "perfbench: printed %d metrics, want exactly %v\n", len(out.Metrics), want)
		os.Exit(1)
	}
	if out.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		os.Exit(1)
	}
	enc, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
	if !out.Correct {
		os.Exit(1)
	}
}

func sameSet(names []string, got map[string]jsonMetric) bool {
	if len(names) != len(got) {
		return false
	}
	for _, n := range names {
		if _, ok := got[n]; !ok {
			return false
		}
	}
	return true
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
