package main

import (
	"context"
	"fmt"
	"net"
	"strings"
	"time"

	"gdmp/internal/core"
)

const (
	smallBytes = 4 << 10
	bulkBytes  = 32 << 20
)

// opSample is one closed-loop operation.
type opSample struct {
	at    time.Duration // when it finished, from the start of its phase
	opMs  float64
	pubMs float64       // the publish before it; negative when there is none
	busy  time.Duration // client time spent on it, publish included
	bytes int64         // replica bytes it landed
}

// windowed holds a measured phase's end-to-end figures: the phase is cut
// into equal windows and each figure is the median over windows, so a
// burst of outside load in one window does not move the run's result.
type windowed struct {
	p50, tail, ops, mbps, pub float64
	note                      string
}

func windowStats(samples []opSample, d time.Duration, w int) windowed {
	var p50s, tails, opsRate, mbRate, pubs []float64
	var first []float64
	for k := 0; k < w; k++ {
		lo, hi := d*time.Duration(k)/time.Duration(w), d*time.Duration(k+1)/time.Duration(w)
		var ops, pub []float64
		var busy time.Duration
		var bytes int64
		for _, s := range samples {
			if s.at < lo || (s.at >= hi && k < w-1) {
				continue
			}
			ops = append(ops, s.opMs)
			if s.pubMs >= 0 {
				pub = append(pub, s.pubMs)
			}
			busy += s.busy
			bytes += s.bytes
		}
		if len(ops) == 0 {
			continue
		}
		if first == nil {
			first = ops
		}
		tv, _, _ := tail(ops)
		p50s = append(p50s, median(ops))
		tails = append(tails, tv)
		opsRate = append(opsRate, float64(len(ops))/busy.Seconds())
		mbRate = append(mbRate, float64(bytes)/1e6/busy.Seconds())
		if len(pub) > 0 {
			pubs = append(pubs, median(pub))
		}
	}
	return windowed{
		p50: median(p50s), tail: median(tails), ops: median(opsRate), mbps: median(mbRate), pub: median(pubs),
		note: fmt.Sprintf("each figure is the median over %d windows of %v; a window's tail is its %s (first window)",
			len(p50s), d/time.Duration(w), tailNote(first)),
	}
}

// --- small-pull and bulk-pull ------------------------------------------------

// Closed-loop shapes: operations before measuring (connections, health
// estimates and the heap settle) and windows the measured phase is cut
// into. A bulk run holds too few pulls for windows with a tail each.
func runSmallPull(ctx context.Context, r *runner) error { return r.pullLoop(ctx, smallBytes, 20, 8) }
func runBulkPull(ctx context.Context, r *runner) error  { return r.pullLoop(ctx, bulkBytes, 1, 1) }

// loopPhase accumulates one closed-loop phase.
type loopPhase struct {
	samples      []opSample
	opMs         []float64
	bytes        int64
	unattributed []float64
	catalogOps   float64 // catalog operations during the Gets
}

// pullLoop is a closed loop of one client: publish a fresh file at the
// producer, then Get it at the consumer, until the phase ends.
func (r *runner) pullLoop(ctx context.Context, size, warm, windows int) error {
	b, err := r.setup(gridSpec{consumers: 1}, nil)
	if err != nil {
		return err
	}
	defer b.close()
	r.res.notef("topology: producer %s, consumer %s; loopback TCP only", producerName, consumerNames[0])
	cons := b.cons[0]
	next := 0
	// phase runs for d, or for maxOps operations when maxOps > 0.
	phase := func(d time.Duration, maxOps int, rp *replayer, perOpCatalog bool) (*loopPhase, error) {
		st := &loopPhase{}
		start := time.Now()
		for n := 0; time.Since(start) < d && (maxOps == 0 || n < maxOps); n++ {
			i := next
			next++
			rel := fmt.Sprintf("%s/f%06d.dat", r.workload, i)
			sum, err := r.writeInput(b, rel, i, size)
			if err != nil {
				return nil, err
			}
			r.res.attempted++
			t0 := time.Now()
			pf, err := b.prod.Publish(rel, core.PublishOptions{})
			pub := time.Since(t0)
			if err != nil {
				r.res.failed++
				r.res.notef("publish %s failed: %v", rel, err)
				continue
			}
			var before snapshot
			if perOpCatalog {
				before = snap(r.catalog)
			}
			t1 := time.Now()
			err = cons.GetCtx(ctx, pf.LFN)
			get := time.Since(t1)
			if perOpCatalog {
				st.catalogOps += snap(r.catalog).minus(before).sum("gdmp_replica_catalog_ops_total")
			}
			if err != nil {
				r.res.failed++
				r.res.notef("get %s failed: %v", pf.LFN, err)
				continue
			}
			st.samples = append(st.samples, opSample{at: time.Since(start), opMs: ms(get), pubMs: ms(pub), busy: pub + get, bytes: int64(size)})
			st.opMs = append(st.opMs, ms(get))
			st.bytes += int64(size)
			if err := checkReplica(b, cons, pf.LFN, rel, sum); err != nil {
				return nil, err
			}
			if rp != nil {
				stages, err := rp.replay(ctx, pf.LFN, sourceOf(b, cons))
				if err != nil {
					return nil, err
				}
				st.unattributed = append(st.unattributed, ms(get-stages))
			}
			if size >= bulkBytes {
				// Bulk files are removed through the program once checked,
				// so a run's disk use stays bounded.
				if err := cons.RemoveLocal(pf.LFN); err != nil {
					return nil, err
				}
				if err := b.prod.DeleteLogical(pf.LFN); err != nil {
					return nil, err
				}
			}
		}
		return st, nil
	}

	if _, err := phase(r.seconds, warm, nil, false); err != nil {
		return err
	}
	if !r.trace {
		if err := resetPeakRSS(); err != nil {
			return err
		}
		st, err := phase(r.seconds, 0, nil, false)
		if err != nil {
			return err
		}
		w := windowStats(st.samples, r.seconds, windows)
		if err := r.e2e(w.p50, w.tail, w.ops, w.mbps); err != nil {
			return err
		}
		r.res.notef("publish_p50_ms %.4f (median over windows)", w.pub)
		r.res.notef("op = consumer Get of a %d-byte file after its publish; %d ops after %d warm-up; %s", size, len(st.samples), warm, w.note)
		r.res.notef("ops_per_s and mb_per_s are per second of client time (publish + Get)")
		return nil
	}
	before := r.counters(b)
	qs := startQueueSampler(b)
	a, err := phase(r.seconds/3, 0, nil, true)
	maxQ := qs.finish()
	if err != nil {
		return err
	}
	d := r.counters(b).minus(before)
	d.catalog = snapshot{"gdmp_replica_catalog_ops_total": a.catalogOps}
	r.layerCounters(d, len(a.opMs), a.bytes, a.opMs, false, maxQ)
	r.res.notef("untraced phase: %d pulls, connections %s", len(a.opMs), d.conns)
	rp, err := newReplayer(b, net.Dial)
	if err != nil {
		return err
	}
	defer rp.close()
	bst, err := phase(r.seconds-r.seconds/3, 0, rp, false)
	if err != nil {
		return err
	}
	r.layerSpans(rp, a.opMs, bst.opMs, bst.unattributed)
	var pub []float64
	for _, s := range a.samples {
		pub = append(pub, s.pubMs)
	}
	r.res.layer.add("core.publish_p50_ms", median(pub), "ms")
	r.noPool()
	r.noFanout()
	return nil
}

// --- zipf-cache ----------------------------------------------------------------

const (
	zipfWarm    = 300 // accesses before measuring, so pools start full
	zipfWindows = 8
)

func runZipfCache(ctx context.Context, r *runner) error {
	tr, err := r.in.zipfTrace()
	if err != nil {
		return err
	}
	// Sidecars are pool residents too: a file costs its bytes plus 2/8
	// of them in parity, plus headers.
	pool := int64(zipfPoolFiles * zipfFileBytes * (parityK + parityM + 1) / parityK)
	var lfns []string
	var sums []digest
	var pubMs []float64
	b, err := r.setup(gridSpec{consumers: 2, poolBytes: pool}, func(b *benchGrid) error {
		lfns, sums = make([]string, zipfFiles), make([]digest, zipfFiles)
		for i := range lfns {
			rel := tr.FileName(i)
			sum, err := r.writeInput(b, rel, i, zipfFileBytes)
			if err != nil {
				return err
			}
			t := time.Now()
			pf, err := b.prod.Publish(rel, core.PublishOptions{Collection: tr.Collection(i)})
			if err != nil {
				return err
			}
			pubMs = append(pubMs, ms(time.Since(t)))
			lfns[i], sums[i] = pf.LFN, sum
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer b.close()
	r.res.notef("topology: producer %s, MSS-backed consumers %s with %d-byte pools; %d files of %d bytes, Zipf s=%.1f; loopback TCP only",
		producerName, strings.Join(consumerNames, ", "), pool, zipfFiles, zipfFileBytes, zipfS)
	byName := map[string]*core.Site{}
	for _, c := range b.cons {
		byName[c.Name()] = c
	}

	type zipfPhase struct {
		samples              []opSample
		missMs, unattributed []float64
		bytes                int64
		hits, misses         int
	}
	var hits, misses int
	next := 0
	phase := func(d time.Duration, maxOps int, rp *replayer) (*zipfPhase, error) {
		st := &zipfPhase{}
		start := time.Now()
		for n := 0; time.Since(start) < d && (maxOps == 0 || n < maxOps); n++ {
			a := tr.Accesses[next%len(tr.Accesses)]
			next++
			c := byName[a.Site]
			lfn := lfns[a.File]
			hit := c.HasFile(lfn)
			r.res.attempted++
			t := time.Now()
			err := c.GetCtx(ctx, lfn)
			get := time.Since(t)
			if err != nil {
				r.res.failed++
				r.res.notef("get %s at %s failed: %v", lfn, c.Name(), err)
				continue
			}
			if used, capacity := c.Pool().Used(), c.Pool().Capacity(); used > capacity {
				return nil, fmt.Errorf("check: pool at %s holds %d bytes over its %d capacity", c.Name(), used, capacity)
			}
			s := opSample{at: time.Since(start), opMs: ms(get), pubMs: -1, busy: get}
			if hit {
				st.hits++
				hits++
				st.samples = append(st.samples, s)
				continue
			}
			st.misses++
			misses++
			s.bytes = zipfFileBytes
			st.samples = append(st.samples, s)
			st.missMs = append(st.missMs, ms(get))
			st.bytes += zipfFileBytes
			if err := checkReplica(b, c, lfn, tr.FileName(a.File), sums[a.File]); err != nil {
				return nil, err
			}
			if rp != nil {
				stages, err := rp.replay(ctx, lfn, sourceOf(b, c))
				if err != nil {
					return nil, err
				}
				st.unattributed = append(st.unattributed, ms(get-stages))
			}
		}
		return st, nil
	}
	// The pools' own counters must close against every access made, and
	// the catalog must list a consumer for exactly the files it holds.
	checkPools := func() error {
		var ph, pm int
		for _, c := range b.cons {
			s := c.Pool().Stats()
			ph += s.Hits
			pm += s.Misses
		}
		if ph != hits || pm != misses {
			return fmt.Errorf("check: pools count %d hits + %d misses, the client saw %d + %d", ph, pm, hits, misses)
		}
		for _, c := range b.cons {
			for _, lfn := range lfns {
				listed, err := catalogLists(b, c, lfn)
				if err != nil {
					return err
				}
				if has := c.HasFile(lfn); has != listed {
					return fmt.Errorf("check: %s resident at %s is %v but catalog lists it %v", lfn, c.Name(), has, listed)
				}
			}
		}
		return nil
	}
	evictions := func() (n int) {
		for _, c := range b.cons {
			n += c.Pool().Stats().Evictions
		}
		return n
	}

	if _, err := phase(r.seconds, zipfWarm, nil); err != nil {
		return err
	}
	if !r.trace {
		ev := evictions()
		if err := resetPeakRSS(); err != nil {
			return err
		}
		st, err := phase(r.seconds, 0, nil)
		if err != nil {
			return err
		}
		if err := checkPools(); err != nil {
			return err
		}
		w := windowStats(st.samples, r.seconds, zipfWindows)
		if err := r.e2e(w.p50, w.tail, w.ops, w.mbps); err != nil {
			return err
		}
		r.res.notef("op = consumer Get of a trace access, hit or miss; %d accesses after %d warm-up: %d hits, %d misses, %d evictions; %s",
			len(st.samples), zipfWarm, st.hits, st.misses, evictions()-ev, w.note)
		r.res.notef("publish_p50_ms %.4f over the %d catalog publishes of all %d set-ups; ops_per_s and mb_per_s are per second of Get time", median(pubMs), len(pubMs), setupRounds)
		return nil
	}
	before := r.counters(b)
	evBefore := evictions()
	qs := startQueueSampler(b)
	a, err := phase(r.seconds/3, 0, nil)
	maxQ := qs.finish()
	if err != nil {
		return err
	}
	d := r.counters(b).minus(before)
	r.layerCounters(d, a.misses, a.bytes, a.missMs, false, maxQ)
	ev := evictions() - evBefore
	rp, err := newReplayer(b, net.Dial)
	if err != nil {
		return err
	}
	defer rp.close()
	bst, err := phase(r.seconds-r.seconds/3, 0, rp)
	if err != nil {
		return err
	}
	if err := checkPools(); err != nil {
		return err
	}
	r.layerSpans(rp, a.missMs, bst.missMs, bst.unattributed)
	r.res.layer.add("core.publish_p50_ms", median(pubMs), "ms")
	r.res.layer.add("mss.hit_ratio", ratio(float64(a.hits), float64(a.hits+a.misses)), "ratio")
	r.res.layer.add("mss.evictions_per_op", ratio(float64(ev), float64(a.hits+a.misses)), "count")
	r.res.layer.add("mss.stage_p50_ms", 1000*d.cons.histQuantile("gdmp_pool_stage_seconds", 0.5), "ms")
	r.noFanout()
	r.res.notef("per-pull metrics count misses (pulls); core.get_ms and trace.overhead_ratio are over misses")
	return nil
}
