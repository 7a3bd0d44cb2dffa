package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"gdmp/internal/core"
	"gdmp/internal/wan"
)

const fanBytes = 1 << 20

// The fanout ladder: publishes per second, in order, each rung lasting
// its share of --seconds in thirds. The end-to-end latency figures are
// taken at the first rung, where a replication's latency is its own work
// rather than queueing behind others, so it runs longest to give its
// tail samples; every rung is printed. A rung sustains its rate when its
// fanSustainQ latency, over at least fanSustainMin samples, is within
// fanLimit. A replica not resolved fanDrainWindow after its rung's last
// publish has timed out.
var (
	fanRates       = []float64{4, 6, 8}
	fanThirds      = []int{2, 1, 1}
	fanLimit       = time.Second
	fanSustainQ    = 0.9
	fanSustainMin  = 20
	fanDrainWindow = 20 * time.Second
)

// fanOp is one publication and its replication to every subscriber.
type fanOp struct {
	lfn, rel string
	sum      digest
	due      time.Time
	late     time.Duration // how late the generator published
	pubMs    float64
	landed   []time.Time // per subscriber; zero until landed
	pending  []bool      // parked in the subscriber's Pending()
}

func (o *fanOp) resolved(j int) bool { return !o.landed[j].IsZero() || o.pending[j] }

func (o *fanOp) fullyLanded() bool {
	for _, t := range o.landed {
		if t.IsZero() {
			return false
		}
	}
	return true
}

// fanRung is the outcome of one ladder rung.
type fanRung struct {
	rate                float64
	ops                 []*fanOp
	latMs, replicaMs    []float64 // both-landed latency; per-replica latency
	replicas, landed    int
	pendingN, timedOut  int
	window              time.Duration // first due until the last replica resolved
	counters            phaseCounters
	backlogOK, sustains bool
}

// runRung publishes at rate for d on the seeded schedule and waits until
// every replica has landed, parked in Pending(), or missed the drain
// window. onLanded, when set, receives each fully landed op.
func (r *runner) runRung(ctx context.Context, b *benchGrid, idx int, rate float64, d time.Duration, onLanded func(*fanOp)) (*fanRung, error) {
	before := r.counters(b)
	sched := r.in.schedule(idx, rate, d)
	ops := make([]*fanOp, len(sched))
	for i := range ops {
		rel := fmt.Sprintf("fanout/r%d/f%04d.dat", idx, i)
		sum, err := r.writeInput(b, rel, 1000*(idx+1)+i, fanBytes)
		if err != nil {
			return nil, err
		}
		ops[i] = &fanOp{rel: rel, sum: sum, landed: make([]time.Time, len(b.cons)), pending: make([]bool, len(b.cons))}
	}

	var mu sync.Mutex
	published := 0
	genDone := make(chan struct{})
	var genErr error
	start := time.Now()
	go func() {
		defer close(genDone)
		for i, off := range sched {
			due := start.Add(off)
			if w := time.Until(due); w > 0 {
				select {
				case <-time.After(w):
				case <-ctx.Done():
					genErr = ctx.Err()
					return
				}
			}
			o := ops[i]
			o.due = due
			o.late = time.Since(due)
			t := time.Now()
			pf, err := b.prod.Publish(o.rel, core.PublishOptions{})
			o.pubMs = ms(time.Since(t))
			if err != nil {
				genErr = fmt.Errorf("publish %s: %w", o.rel, err)
				return
			}
			mu.Lock()
			o.lfn = pf.LFN
			published++
			mu.Unlock()
		}
	}()

	// Watch every replica: landing shows in the subscriber's local catalog,
	// failure as a notice parked in its Pending() list.
	deadline := start.Add(d + fanDrainWindow)
	var lastResolved time.Time
watch:
	for tick := 0; ; tick++ {
		mu.Lock()
		n := published
		mu.Unlock()
		var pend []map[string]bool
		if tick%10 == 0 {
			for _, c := range b.cons {
				m := map[string]bool{}
				for _, fi := range c.Pending() {
					m[fi.LFN] = true
				}
				pend = append(pend, m)
			}
		}
		open := 0
		now := time.Now()
		for _, o := range ops[:n] {
			was := true
			for j, c := range b.cons {
				if o.resolved(j) {
					continue
				}
				was = false
				if c.HasFile(o.lfn) {
					o.landed[j] = now
					lastResolved = now
				} else if pend != nil && pend[j][o.lfn] {
					o.pending[j] = true
					lastResolved = now
				} else {
					open++
				}
			}
			if !was && onLanded != nil && o.fullyLanded() {
				onLanded(o)
			}
		}
		select {
		case <-genDone:
			if genErr != nil || (open == 0 && n == len(ops)) {
				break watch
			}
		default:
		}
		if now.After(deadline) {
			break watch
		}
		time.Sleep(time.Millisecond)
	}
	<-genDone
	if genErr != nil {
		return nil, genErr
	}
	rg := &fanRung{rate: rate, ops: ops, counters: r.counters(b).minus(before)}
	if !lastResolved.IsZero() && len(sched) > 0 {
		rg.window = lastResolved.Sub(start.Add(sched[0]))
	}
	for _, o := range ops {
		var last time.Time
		for j, c := range b.cons {
			rg.replicas++
			switch {
			case !o.landed[j].IsZero():
				rg.landed++
				rg.replicaMs = append(rg.replicaMs, ms(o.landed[j].Sub(o.due)))
				if o.landed[j].After(last) {
					last = o.landed[j]
				}
				if err := checkLanded(b, c, o); err != nil {
					return nil, err
				}
			case o.pending[j]:
				rg.pendingN++
			default:
				rg.timedOut++
			}
		}
		if o.fullyLanded() {
			rg.latMs = append(rg.latMs, ms(last.Sub(o.due)))
		}
	}
	// A backlog grows when the rung's last quarter waits much longer than
	// its first.
	q := len(rg.latMs) / 4
	rg.backlogOK = q > 0 && median(rg.latMs[len(rg.latMs)-q:]) <= 1.5*median(rg.latMs[:q])
	rg.sustains = rg.pendingN+rg.timedOut == 0 && rg.backlogOK &&
		len(rg.latMs) >= fanSustainMin && quantile(rg.latMs, fanSustainQ) <= ms(fanLimit)
	return rg, nil
}

// checkLanded checks a replica the watcher saw land. The catalog
// registration follows the local landing by a few calls, so it gets a
// short settle window before the check fails.
func checkLanded(b *benchGrid, c *core.Site, o *fanOp) error {
	for end := time.Now().Add(2 * time.Second); ; {
		err := checkReplica(b, c, o.lfn, o.rel, o.sum)
		if err == nil || time.Now().After(end) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func runFanoutWAN(ctx context.Context, r *runner) error {
	b, err := r.setup(gridSpec{consumers: 2, wan: true, subscribe: true}, nil)
	if err != nil {
		return err
	}
	defer b.close()
	r.res.notef("topology: producer %s; auto-replicating subscribers %s, each behind its own internal/wan link (%d Mbps, %v RTT) over loopback TCP",
		producerName, strings.Join(consumerNames, ", "), wanRateMbps, wanRTT)
	third := r.seconds / 3

	var rungs []*fanRung
	if err := resetPeakRSS(); err != nil {
		return err
	}
	before := r.counters(b)
	qs := startQueueSampler(b)
	for i, rate := range fanRates {
		rg, err := r.runRung(ctx, b, i, rate, third*time.Duration(fanThirds[i]), nil)
		if err != nil {
			qs.finish()
			return err
		}
		rungs = append(rungs, rg)
		r.reportRung(rg)
	}
	maxQ := qs.finish()
	total := r.counters(b).minus(before)
	residue := 0
	for _, c := range b.cons {
		residue += len(c.Pending())
	}
	sustained := 0.0
	var replicaMs, lateMs []float64
	var landed int
	var window time.Duration
	for _, rg := range rungs {
		if rg.sustains {
			sustained = rg.rate
		}
		replicaMs = append(replicaMs, rg.replicaMs...)
		landed += rg.landed
		window += rg.window
		r.res.attempted += rg.replicas
		r.res.failed += rg.pendingN + rg.timedOut
		for _, o := range rg.ops {
			lateMs = append(lateMs, ms(o.late))
		}
	}
	r.res.notef("sustained_rate %.0f/s (limit: p%.0f over at least %d samples <= %v, zero failures, no growing backlog); files left in Pending() at the end: %d, never retried by the benchmark",
		sustained, 100*fanSustainQ, fanSustainMin, fanLimit, residue)
	first := rungs[0]
	var pubMs []float64
	for _, o := range first.ops {
		pubMs = append(pubMs, o.pubMs)
	}
	if !r.trace {
		tv, _, _ := tail(first.latMs)
		perSec := float64(landed) / window.Seconds()
		if err := r.e2e(median(first.latMs), tv, perSec, perSec*fanBytes/1e6); err != nil {
			return err
		}
		r.res.notef("op = publish due time until both subscribers hold the replica; op_p50_ms, op_tail_ms (%s) and publish_p50_ms %.4f are at the %.0f/s rung",
			tailNote(first.latMs), median(pubMs), first.rate)
		r.res.notef("ops_per_s and mb_per_s count landed replicas of every rung over the rungs' first-due-to-last-landing windows")
		return nil
	}

	// Traced phase: the first rung again for a third of --seconds, each
	// fully landed publication's pull replayed over a link of its own with
	// the same shape.
	link := wan.NewLink(wanRateMbps, wanRTT)
	rp, err := newReplayer(b, link.Dialer(nil))
	if err != nil {
		return err
	}
	defer rp.close()
	work := make(chan *fanOp, 1024) // more than a rung publishes
	var unattributed []float64
	done := make(chan error, 1)
	go func() {
		var firstErr error
		for o := range work {
			if firstErr != nil {
				continue
			}
			stages, err := rp.replay(ctx, o.lfn, b.prod)
			if err != nil {
				firstErr = err
				continue
			}
			unattributed = append(unattributed, ms(o.landed[0].Sub(o.due)-stages))
		}
		done <- firstErr
	}()
	rg, err := r.runRung(ctx, b, len(fanRates), fanRates[0], third, func(o *fanOp) { work <- o })
	close(work)
	if rerr := <-done; err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	r.reportRung(rg)
	r.res.attempted += rg.replicas
	r.res.failed += rg.pendingN + rg.timedOut

	r.layerCounters(total, landed, int64(landed)*fanBytes, replicaMs, true, maxQ)
	r.layerSpans(rp, first.latMs, rg.latMs, unattributed)
	r.res.layer.add("core.publish_p50_ms", median(pubMs), "ms")
	r.noPool()
	r.res.layer.add("e2e.fail_ratio", ratio(float64(r.res.failed), float64(r.res.attempted)), "ratio")
	r.res.layer.add("fanout.sustained_rate", sustained, "1/s")
	r.res.layer.add("fanout.pending_residue", float64(residue), "count")
	r.res.layer.add("fanout.generator_late_ms", quantile(lateMs, 1), "ms")
	r.res.notef("per-pull metrics count landed replicas of the ladder; replica.ops_per_pull includes the producer's publish registrations; trace.overhead_ratio compares the traced first-rung rerun with the untraced first rung")
	return nil
}

// reportRung prints one rung's outcome, classifying failures from the
// subscribers' health, retry and hedge counters.
func (r *runner) reportRung(rg *fanRung) {
	var late []float64
	for _, o := range rg.ops {
		late = append(late, ms(o.late))
	}
	backlog := "steady"
	if !rg.backlogOK {
		backlog = "growing"
	}
	tv, _, _ := tail(rg.latMs)
	sq := fmt.Sprintf("p%.0f %.1f ms", 100*fanSustainQ, quantile(rg.latMs, fanSustainQ))
	if len(rg.latMs) < fanSustainMin {
		sq = fmt.Sprintf("too few samples for p%.0f (%d < %d)", 100*fanSustainQ, len(rg.latMs), fanSustainMin)
	}
	r.res.notef("rung %.0f/s: %d publishes, %d replicas, %d landed, %d failed (%d parked in Pending, %d timed out), fail_ratio %.4f; latency p50 %.1f ms, tail %.1f ms (%s), %s; generator late p50 %.2f ms max %.2f ms; backlog %s; sustains %v",
		rg.rate, len(rg.ops), rg.replicas, rg.landed, rg.pendingN+rg.timedOut, rg.pendingN, rg.timedOut,
		ratio(float64(rg.pendingN+rg.timedOut), float64(rg.replicas)), median(rg.latMs), tv, tailNote(rg.latMs),
		sq, median(late), quantile(late, 1), backlog, rg.sustains)
	if rg.pendingN+rg.timedOut > 0 {
		var parts []string
		for k, v := range rg.counters.cons {
			if v == 0 {
				continue
			}
			if strings.HasPrefix(k, "gdmp_health_stalls_total") || strings.HasPrefix(k, "gdmp_xfer_hedge_") ||
				(strings.HasPrefix(k, "gdmp_retry_ops_total") && !strings.Contains(k, `outcome="ok"`)) {
				parts = append(parts, fmt.Sprintf("%s=%g", k, v))
			}
		}
		sort.Strings(parts)
		r.res.notef("  failure classes at %.0f/s: %s", rg.rate, strings.Join(parts, " "))
	}
}
