package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gdmp/internal/core"
	"gdmp/internal/gridftp"
	"gdmp/internal/obs"
)

// benchWorkload is one set of inputs the benchmark runs.
type benchWorkload struct {
	name string
	why  string
	run  func(ctx context.Context, r *runner) error
}

var workloads = []benchWorkload{
	{"small-pull", "4 KiB publish-then-Get closed loop: fixed per-pull cost (handshakes, catalog round trips, journal) dominates", runSmallPull},
	{"bulk-pull", "32 MiB publish-then-Get closed loop: the bytes path (data stream, CRC passes, fsync, parity encode) dominates", runBulkPull},
	{"zipf-cache", "seeded Zipf Gets against MSS pools smaller than the working set: hit path plus miss, evict and withdraw", runZipfCache},
	{"fanout-wan", "open-loop publish ladder to 2 auto-replicating subscribers behind shaped 100 Mbps/20 ms links", runFanoutWAN},
}

// setupRounds grids are built per run; setup_s is their median and the
// last one runs the workload. A set-up is mostly RSA-2048 key generation
// (one key per site, the CA and the catalog). The prime search makes one
// key's time vary more than tenfold, so one set-up varies by a factor of
// two and one sample would not do.
const setupRounds = 5

// runner carries one benchmark run.
type runner struct {
	workload string
	in       inputs
	seconds  time.Duration
	trace    bool
	base     string // scratch directory for grids, inside the checkout
	res      *result
	setupS   []float64
	catalog  *obs.Registry // the central catalog's registry
}

// setup builds setupRounds grids, timing each from construction until it
// is ready for the first operation, and keeps the last.
func (r *runner) setup(spec gridSpec, prepare func(b *benchGrid) error) (*benchGrid, error) {
	var kept *benchGrid
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		b, err := newBenchGrid(filepath.Join(r.base, fmt.Sprintf("grid%d", i)), spec)
		if err != nil {
			return nil, err
		}
		if prepare != nil {
			if err := prepare(b); err != nil {
				b.close()
				return nil, err
			}
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
		if i < setupRounds-1 {
			b.close()
		} else {
			kept = b
		}
	}
	return kept, nil
}

type digest [sha256.Size]byte

// writeInput writes the i-th generated file of size bytes at the
// producer and returns its digest; the benchmark keeps digests, not data.
func (r *runner) writeInput(b *benchGrid, rel string, i, size int) (digest, error) {
	data := r.in.fileData(i, size)
	if _, err := b.g.WriteSiteFile(producerName, rel, data); err != nil {
		return digest{}, err
	}
	return sha256.Sum256(data), nil
}

// checkReplica verifies one landed replica: the same bytes the producer
// was given, listed by the catalog at the consumer, no staging file left.
func checkReplica(b *benchGrid, c *core.Site, lfn, rel string, want digest) error {
	path := filepath.Join(c.DataDir(), filepath.FromSlash(rel))
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("check %s at %s: %w", lfn, c.Name(), err)
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return fmt.Errorf("check %s at %s: %w", lfn, c.Name(), err)
	}
	if digest(h.Sum(nil)) != want {
		return fmt.Errorf("check %s at %s: replica differs from the producer's data", lfn, c.Name())
	}
	if _, err := os.Stat(path + gridftp.PartSuffix); err == nil {
		return fmt.Errorf("check %s at %s: staging file %s remains", lfn, c.Name(), gridftp.PartSuffix)
	}
	listed, err := catalogLists(b, c, lfn)
	if err != nil {
		return err
	}
	if !listed {
		return fmt.Errorf("check %s: catalog does not list %s", lfn, c.Name())
	}
	return nil
}

func catalogLists(b *benchGrid, c *core.Site, lfn string) (bool, error) {
	locs, err := b.g.Catalog.Locations(lfn)
	if err != nil {
		return false, fmt.Errorf("catalog locations of %s: %w", lfn, err)
	}
	for _, l := range locs {
		if p, err := core.ParsePFN(l); err == nil && p.Addr == c.DataAddr() {
			return true, nil
		}
	}
	return false, nil
}

// sourceOf returns the site the consumer's most recent pull came from.
func sourceOf(b *benchGrid, c *core.Site) *core.Site {
	h := c.TransferHistory()
	if len(h) > 0 {
		src := h[len(h)-1].Source
		for _, s := range append([]*core.Site{b.prod}, b.cons...) {
			if s.DataAddr() == src {
				return s
			}
		}
	}
	return b.prod
}

// phaseCounters captures every counter a phase's per-layer metrics read.
type phaseCounters struct {
	prod, cons, catalog snapshot
	conns               connCounts
}

func (r *runner) counters(b *benchGrid) phaseCounters {
	return phaseCounters{
		prod:    snap(b.prodReg),
		cons:    snap(b.consRegs...),
		catalog: snap(r.catalog),
		conns:   b.connCounts(),
	}
}

func (p phaseCounters) minus(o phaseCounters) phaseCounters {
	return phaseCounters{
		prod:    p.prod.minus(o.prod),
		cons:    p.cons.minus(o.cons),
		catalog: p.catalog.minus(o.catalog),
		conns:   p.conns.minus(o.conns),
	}
}

// queueSampler polls the consumers' pull-queue gauges until stopped.
type queueSampler struct {
	stop chan struct{}
	done chan struct{}
	max  int64
}

func startQueueSampler(b *benchGrid) *queueSampler {
	q := &queueSampler{stop: make(chan struct{}), done: make(chan struct{})}
	var gauges []*obs.Gauge
	for _, reg := range b.consRegs {
		gauges = append(gauges, reg.Gauge("gdmp_xfer_queue_depth", ""))
	}
	go func() {
		defer close(q.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			for _, g := range gauges {
				if v := g.Value(); v > q.max {
					q.max = v
				}
			}
			select {
			case <-q.stop:
				return
			case <-t.C:
			}
		}
	}()
	return q
}

func (q *queueSampler) finish() int64 {
	close(q.stop)
	<-q.done
	return q.max
}

// layerCounters turns a phase's counter deltas into the counter-derived
// per-layer metrics. pulls is the number of landed pulls, bytes their
// payload, opMs the pulls' latencies.
func (r *runner) layerCounters(d phaseCounters, pulls int, bytes int64, opMs []float64, wanLinks bool, maxQueue int64) {
	n := float64(pulls)
	l := &r.res.layer
	l.add("gsi.handshakes_per_pull", ratio(float64(d.conns.authenticated()), n), "count")
	l.add("gridftp.sessions_per_pull", ratio(float64(d.conns[connControl]), n), "count")
	l.add("gridftp.data_conns_per_pull", ratio(float64(d.conns[connData]), n), "count")
	l.add("conn.per_pull", ratio(float64(d.conns.total()), n), "count")
	l.add("gridftp.server_bytes_per_user_byte", ratio(d.prod.sum("gdmp_gridftp_server_bytes_total")+d.cons.sum("gdmp_gridftp_server_bytes_total"), float64(bytes)), "ratio")
	l.add("parity.sidecars_per_pull", ratio(d.cons.sum("gdmp_parity_sidecars_total"), n), "count")
	l.add("journal.appends_per_pull", ratio(d.cons.sum("gdmp_journal_appends_total"), n), "count")
	l.add("journal.bytes_per_pull", ratio(d.cons.sum("gdmp_journal_append_bytes_total"), n), "B")
	l.add("replica.ops_per_pull", ratio(d.catalog.sum("gdmp_replica_catalog_ops_total"), n), "count")
	jobMs := 1000 * ratio(d.cons.sum("gdmp_xfer_job_seconds_sum"), d.cons.sum("gdmp_xfer_job_seconds_count"))
	l.add("xfer.queue_wait_ms", ratio(sum(opMs), float64(len(opMs)))-jobMs, "ms")
	l.add("xfer.max_queue_depth", float64(maxQueue), "count")
	adm := 1000 * ratio(d.prod.sum("gdmp_admission_wait_seconds_sum")+d.cons.sum("gdmp_admission_wait_seconds_sum"),
		d.prod.sum("gdmp_admission_wait_seconds_count")+d.cons.sum("gdmp_admission_wait_seconds_count"))
	l.add("admission.wait_ms", adm, "ms")
	l.add("admission.rejected", d.prod.sum("gdmp_admission_rejected_total")+d.cons.sum("gdmp_admission_rejected_total"), "count")
	l.add("health.stalls", d.cons.sum("gdmp_health_stalls_total"), "count")
	l.add("retry.attempts_per_pull", ratio(d.cons.sum("gdmp_retry_attempts_total", `op="core.replicate"`), n), "count")
	l.add("retry.exhausted", d.cons.sum("gdmp_retry_ops_total", `outcome="exhausted"`), "count")
	dials, rtts := 0.0, 0.0
	if wanLinks {
		dials = ratio(float64(d.conns.total()), n)
		rate := float64(wanRateMbps) * 1e6 / 8
		perPull := ratio(float64(bytes), n)
		rtts = (median(opMs)/1000 - perPull/rate) / wanRTT.Seconds()
	}
	l.add("wan.dials_per_pull", dials, "count")
	l.add("wan.rtts_per_pull", rtts, "count")
}

// layerSpans turns the replayed stage spans into per-layer metrics.
func (r *runner) layerSpans(rp *replayer, untracedMs, tracedMs, unattributed []float64) {
	l := &r.res.layer
	med := func(name string) float64 { return median(rp.spanMs(name)) }
	l.add("replica.lookup_ms", med(spanLookup), "ms")
	l.add("gsi.handshake_ms", med(spanHandshake), "ms")
	l.add("rpc.dial_ms", med(spanRPCDial), "ms")
	l.add("rpc.stage_call_ms", med(spanStageCall), "ms")
	l.add("gridftp.dial_ms", med(spanFTPDial), "ms")
	l.add("gridftp.get_ms", med(spanGet), "ms")
	l.add("gridftp.get_mb_per_s", ratio(float64(rp.bytes)/1e6, sum(rp.spanMs(spanGet))/1000), "MB/s")
	l.add("gridftp.crc_ms", med(spanCRC), "ms")
	l.add("parity.encode_ms", med(spanParity), "ms")
	l.add("journal.append_ms", med(spanJournal), "ms")
	l.add("core.get_ms", median(tracedMs), "ms")
	l.add("core.unattributed_ms", median(unattributed), "ms")
	l.add("trace.overhead_ratio", ratio(median(tracedMs), median(untracedMs)), "ratio")
	r.res.notef("traced run: %d replayed pulls; stage medians (ms): %s", rp.n, stageSummary(rp))
}

func stageSummary(rp *replayer) string {
	var parts []string
	for _, s := range append([]string{spanHandshake}, pullStages...) {
		parts = append(parts, fmt.Sprintf("%s=%.3f", s, median(rp.spanMs(s))))
	}
	return strings.Join(parts, " ")
}

// e2e reports the end-to-end metrics every workload shares.
func (r *runner) e2e(p50, tailMs, ops, mbps float64) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	e := &r.res.e2e
	e.add("setup_s", median(r.setupS), "s")
	e.add("op_p50_ms", p50, "ms")
	e.add("op_tail_ms", tailMs, "ms")
	e.add("ops_per_s", ops, "1/s")
	e.add("mb_per_s", mbps, "MB/s")
	e.add("max_rss_mb", rss, "MB")
	r.res.notef("setup_s is the median of %d set-ups %s", len(r.setupS), fmtList(r.setupS))
	return nil
}

// tailNote describes the tail percentile of a sample set.
func tailNote(xs []float64) string {
	_, pct, ok := tail(xs)
	if !ok {
		return fmt.Sprintf("the maximum of %d samples (too few for %d beyond a percentile)", len(xs), minBeyond)
	}
	return fmt.Sprintf("p%.2f of %d samples (%d beyond it)", pct, len(xs), minBeyond)
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// noPool reports the mss metrics of a workload without disk pools.
func (r *runner) noPool() {
	r.res.layer.add("mss.hit_ratio", 0, "ratio")
	r.res.layer.add("mss.evictions_per_op", 0, "count")
	r.res.layer.add("mss.stage_p50_ms", 0, "ms")
}

// noFanout reports the fanout-only metrics of a closed loop, whose fail
// ratio is the run's.
func (r *runner) noFanout() {
	r.res.layer.add("e2e.fail_ratio", ratio(float64(r.res.failed), float64(r.res.attempted)), "ratio")
	r.res.layer.add("fanout.sustained_rate", 0, "1/s")
	r.res.layer.add("fanout.pending_residue", 0, "count")
	r.res.layer.add("fanout.generator_late_ms", 0, "ms")
}
