package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gdmp/internal/admission"
	"gdmp/internal/gridftp"
	"gdmp/internal/health"
	"gdmp/internal/obs"
	"gdmp/internal/replica"
	"gdmp/internal/retry"
	"gdmp/internal/rpc"
)

// This file is the pull pipeline of Section 4.1 around the Data Mover of
// Section 4.3. A pull runs one attempt plan: a sequence of steps, each one
// (source, byte range) — the range is whatever the staged .part file still
// lacks once the step's source has vouched for its verified prefix. Step
// sources come from the health-ranked replica list, and one retry policy
// labeled core.replicate runs the steps under one cap, one backoff, and
// the job's context as the only deadline. A step that stalls is hedged:
// the next step is prepared early (stage request and GridFTP session), the
// stalled one is canceled, and the next one transfers on the warmed
// session, resuming the CRC-verified prefix instead of restarting at zero.

// HedgeMetricsPrefix namespaces the hedged-pull counters.
const HedgeMetricsPrefix = "gdmp_xfer_hedge"

type hedgeMetrics struct {
	started *obs.Counter
	wins    *obs.CounterVec
	wasted  *obs.Counter
}

func newHedgeMetrics(reg *obs.Registry) *hedgeMetrics {
	return &hedgeMetrics{
		started: reg.Counter(HedgeMetricsPrefix+"_started_total",
			"Hedged pull legs started after the active source stalled."),
		wins: reg.CounterVec(HedgeMetricsPrefix+"_wins_total",
			"Pulls that had a hedge in flight, by which leg delivered the file.", "winner"),
		wasted: reg.Counter(HedgeMetricsPrefix+"_wasted_bytes_total",
			"Bytes moved by losing legs that the winner could not reuse."),
	}
}

func (s *Site) replicate(ctx context.Context, lfn string) error {
	entry, err := s.rc.lookup(ctx, lfn)
	if err != nil {
		return fmt.Errorf("core: lookup %s: %w", lfn, err)
	}
	candidates, err := s.rc.locations(ctx, lfn)
	if err != nil {
		return err
	}
	// Never fetch from ourselves.
	usable := slices.DeleteFunc(candidates, func(p PFN) bool { return p.Addr == s.DataAddr() })
	if len(usable) == 0 {
		// The central location table came up empty (withdrawal race,
		// partial registration, foreign publisher): fall back to the RLI
		// tier, confirming digest hints with LRC point queries.
		usable = s.rliSources(ctx, entry, lfn)
	}
	if len(usable) == 0 {
		return fmt.Errorf("core: no remote replica of %s", lfn)
	}
	// Failover order: the selector's pick first, then the remaining
	// replicas in catalog order.
	pick := s.cfg.Select(lfn, usable)
	order := append([]PFN{pick}, slices.DeleteFunc(slices.Clone(usable), func(p PFN) bool { return p == pick })...)

	ftName := entry.Attrs[replica.AttrFileType]
	if ftName == "" {
		ftName = FlatType{}.Name()
	}
	ft, err := s.types.lookup(ftName)
	if err != nil {
		return err
	}

	// Step 1: pre-processing.
	if err := ft.PreProcess(s, lfn); err != nil {
		return fmt.Errorf("core: pre-process %s: %w", lfn, err)
	}

	// Step 2: the actual file transfer (staged at the source if needed),
	// run as one attempt plan across the replica locations.
	rel := entry.Attrs[attrPath]
	if rel == "" {
		rel = order[0].Path
	}
	localPath, err := s.resolveLocal(rel)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(localPath), 0o755); err != nil {
		return err
	}
	size, _ := entry.Size()
	var poolReserve func()
	if s.storage != nil {
		release, rerr := s.storage.Reserve(size)
		if rerr != nil {
			return fmt.Errorf("core: reserve %d bytes for %s: %w", size, lfn, rerr)
		}
		// The defer covers the error paths; the success path releases
		// explicitly before AddToPool, because holding the reservation
		// while the pool also counts the landed bytes would double-charge
		// capacity and trigger spurious evictions. Release is once-only,
		// so both firing is safe.
		defer release()
		poolReserve = release
	}
	fetchStart := time.Now()
	plan := &pullPlan{
		s: s, entry: entry, lfn: lfn, localPath: localPath,
		sources: order, tries: make(map[string]int),
	}
	if err := plan.run(ctx); err != nil {
		return fmt.Errorf("core: transfer %s: %w", lfn, err)
	}
	fetchElapsed := time.Since(fetchStart)

	// Step 3: post-processing (e.g. attach to the federation).
	if err := ft.PostProcess(s, lfn, localPath); err != nil {
		return fmt.Errorf("core: post-process %s: %w", lfn, err)
	}

	// Step 4: insert into the local catalog (journaled) first, then
	// register the location with the replica catalog. The local catalog
	// backs gdmp.digest, so this order means a crash or RC failure
	// between the two leaves a local file without an RC entry — which
	// the scrubber's location re-assertion heals — rather than an RC
	// entry whose digest denies the file, which peers' anti-entropy
	// rounds would withdraw as dangling. The replica becomes visible
	// locally only once it is journaled, in the pool, and covered by its
	// parity sidecar.
	info, err := os.Stat(localPath)
	if err != nil {
		return err
	}
	myPFN := s.pfnFor(rel)
	fi := FileInfo{
		LFN: lfn, Path: myPFN.Path, Size: info.Size(),
		CRC32: entry.Attrs[replica.AttrCRC], FileType: ftName, State: StateDisk,
	}
	if err := s.persist.putFile(fi); err != nil {
		return fmt.Errorf("core: journal replica %s: %w", lfn, err)
	}
	if s.storage != nil {
		poolReserve()
		if err := s.storage.AddToPool(myPFN.Path); err != nil {
			s.logger.Printf("gdmp[%s]: pool registration of %s: %v", s.cfg.Name, myPFN.Path, err)
		}
		s.storage.NoteAccess(false, fetchElapsed)
	}
	s.writeParitySidecar(fi)
	s.local.put(fi)
	s.notePoolDemand(rel)
	if err := s.rc.addReplica(ctx, lfn, myPFN); err != nil {
		return err
	}
	if err := s.rc.setAttrs(ctx, lfn, map[string]string{ctlAttrPrefix + myPFN.Addr: s.Addr()}); err != nil {
		return err
	}
	return nil
}

// pullPlan is one pull's attempt plan. Only the goroutine running the plan
// touches sources, tries and ready; staged is shared with a hedge's
// preparation, which stages the next step's source concurrently.
type pullPlan struct {
	s         *Site
	entry     *replica.LogicalFile
	lfn       string
	localPath string

	sources []PFN          // candidates not ruled out, in failover order
	tries   map[string]int // steps taken per source
	cap     int            // steps allowed for the whole pull
	ready   *step          // the next step, prepared early by a hedge
	staged  sync.Map       // source addr -> true once its stage request succeeded
}

// step is one entry of the plan: a source, and whatever range of the file
// the staged prefix lacks.
type step struct {
	n      int // 1-based position in the plan
	src    PFN
	forced bool // every breaker refused: admit as an early reopen probe

	// warm is the GridFTP session a hedge dialed for this step; the
	// step's transfer runs on it, and cancelWarm ends its context.
	warm       *gridftp.Client
	cancelWarm context.CancelFunc

	// hedge marks a step that took over from a stalled one; lost is
	// what the stalled step had moved (the wasted-bytes ledger).
	hedge bool
	lost  int64
}

// discard releases a warm session the step never used.
func (st *step) discard() {
	if st == nil || st.cancelWarm == nil {
		return
	}
	st.cancelWarm()
	if st.warm != nil {
		st.warm.Close()
	}
}

// run executes the plan: one retry.Policy.Do whose every attempt is one
// step. The cap is Config.TransferAttempts, raised to the number of
// sources so each replica gets at least one step.
func (p *pullPlan) run(ctx context.Context) error {
	pol := p.s.retryPolicy("core.replicate")
	pol.Attempts = max(p.s.cfg.TransferAttempts, len(p.sources))
	pol.Retryable = retry.DefaultRetryable
	p.cap = pol.Attempts
	defer func() { p.ready.discard() }()
	return pol.Do(ctx, func(n int) error {
		st := p.ready
		if p.ready = nil; st == nil {
			st = p.pick("")
		}
		st.n = n
		err := p.runStep(ctx, st)
		if err != nil && rulesOut(err) {
			p.sources = slices.DeleteFunc(p.sources, func(c PFN) bool { return c.Addr == st.src.Addr })
			if len(p.sources) == 0 {
				return retry.Permanent(err)
			}
		}
		return err
	})
}

// pick chooses a step's source among the remaining ones, skipping
// exclude: the least-tried source whose breaker admits traffic, ties
// going to the healthiest (probe-due peers first, so live traffic carries
// reopen probes; then closed breakers by descending EWMA bandwidth) and
// then to plan order. When every breaker refuses, the step is forced: it
// goes to the first source anyway as an early reopen probe, because a
// single-replica grid must not deadlock behind its only peer. It returns
// nil only when every remaining source is excluded.
func (p *pullPlan) pick(exclude string) *step {
	cands := slices.DeleteFunc(slices.Clone(p.sources), func(c PFN) bool { return c.Addr == exclude })
	if len(cands) == 0 {
		return nil
	}
	// Snapshot scores once: the comparator must not see a peer change
	// state mid-sort.
	scores := make(map[string]health.Score, len(cands))
	for _, c := range cands {
		scores[c.Addr] = p.s.health.ScoreOf(c.Addr)
	}
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i].Addr, cands[j].Addr
		if p.tries[a] != p.tries[b] {
			return p.tries[a] < p.tries[b]
		}
		return health.Healthier(scores[a], scores[b])
	})
	for _, c := range cands {
		if p.s.health.Usable(c.Addr) {
			return &step{src: c}
		}
	}
	return &step{src: cands[0], forced: true}
}

// rulesOut reports whether err condemns its source rather than the
// attempt: the source's GDMP server rejected the stage request, or its
// GridFTP server answered with a permanent (5yz) reply. Asking the same
// source again cannot help, so the plan drops it and carries on with the
// others. An overload rejection only asks the caller to come back later.
func rulesOut(err error) bool {
	if errors.Is(err, admission.ErrOverloaded) {
		return false
	}
	var re *rpc.RemoteError
	var fe *gridftp.ReplyError
	return errors.As(err, &re) || (errors.As(err, &fe) && fe.Code >= 500)
}

type legResult struct {
	stats gridftp.TransferStats
	err   error
}

// runStep runs one step under breaker admission and the stall watchdog,
// whose clock restarts on every landed byte. When it fires and the cap
// leaves another step for a usable source, that step is prepared; the
// stalled one is then canceled and waited out — never two writers on one
// .part file — and the prepared step is queued as the next attempt. With
// nothing to hedge to, a stalled step is canceled outright.
func (p *pullPlan) runStep(ctx context.Context, st *step) error {
	s := p.s
	p.tries[st.src.Addr]++
	begin := s.health.Begin
	if st.forced {
		begin = s.health.BeginForced
	}
	end, ok := begin(st.src.Addr)
	if !ok {
		st.discard()
		return fmt.Errorf("core: source circuit breaker open: %s", st.src.Addr)
	}

	stepCtx, cancelStep := context.WithCancel(ctx)
	defer cancelStep()
	if st.cancelWarm != nil {
		// The warm session lives on its own context; canceling the step
		// must sever it too.
		context.AfterFunc(stepCtx, st.cancelWarm)
	}
	var lastProgress atomic.Int64
	lastProgress.Store(time.Now().UnixNano())
	progress := func(int64) { lastProgress.Store(time.Now().UnixNano()) }
	resCh := make(chan legResult, 1)
	go func() {
		stats, err := p.transfer(stepCtx, st, progress)
		resCh <- legResult{stats, err}
	}()

	// The scoreboard's p99-derived deadline once the peer has history,
	// the configured cold-start default before; negative disables.
	deadline := s.health.StallDeadline(st.src.Addr)
	if deadline == 0 || s.cfg.HedgeDeadline < 0 {
		deadline = max(s.cfg.HedgeDeadline, 0)
	}
	var timer *time.Timer
	var timerC <-chan time.Time
	if deadline > 0 {
		timer = time.NewTimer(deadline)
		defer timer.Stop()
		timerC = timer.C
	}
	stalled := false
	var next *step // the step a hedge is preparing
	var prepCh chan error
	// settle books the step's outcome. A stalled step reports the stall,
	// not the watchdog's cancellation, so the plan keeps going. With a
	// hedge in flight, a step that recovered in time abandons it, and one
	// that failed hands over to it.
	settle := func(res legResult, perr error) error {
		err := res.err
		if stalled && err != nil && ctx.Err() == nil {
			// A plain, retryable error: the surfaced context.Canceled of
			// our own watchdog would end the plan.
			err = fmt.Errorf("core: transfer stalled: %s moved no bytes for %v pulling %s",
				st.src.Addr, deadline, p.lfn)
		}
		end(res.stats.Bytes, res.stats.Elapsed, err)
		st.discard()
		if err == nil && st.hedge {
			s.hedgeMet.wins.WithLabelValues("hedge").Inc()
			// A rejected prefix handshake throws the staged bytes away;
			// charge the larger of the two views of the same loss.
			if wasted := max(st.lost-res.stats.ResumedBytes, res.stats.DiscardedBytes); wasted > 0 {
				s.hedgeMet.wasted.Add(wasted)
			}
		}
		if next == nil {
			return err
		}
		if err != nil && perr == nil {
			next.hedge, next.lost = true, res.stats.Bytes
			p.ready = next
			return err
		}
		next.discard()
		if err != nil {
			return fmt.Errorf("%w (hedge to %s: %v)", err, next.src.Addr, perr)
		}
		if !st.hedge {
			s.hedgeMet.wins.WithLabelValues("primary").Inc()
		}
		return nil
	}
	for {
		select {
		case res := <-resCh:
			var perr error
			if next != nil {
				if res.err == nil {
					next.cancelWarm() // recovered in time: abandon the hedge
				}
				perr = <-prepCh
			}
			return settle(res, perr)
		case <-timerC:
			if idle := time.Since(time.Unix(0, lastProgress.Load())); idle < deadline {
				timer.Reset(deadline - idle)
				continue
			}
			timerC, stalled = nil, true
			s.health.ObserveStall(st.src.Addr)
			if st.n < p.cap {
				next = p.pick(st.src.Addr)
			}
			if next == nil || next.forced {
				next = nil
				cancelStep()
				continue
			}
			// Warm the next step up while this one gets its grace window:
			// the stage request and the GridFTP session setup happen now,
			// so a takeover starts with the handshakes already paid.
			s.hedgeMet.started.Inc()
			next.n = st.n + 1
			var prepCtx context.Context
			prepCtx, next.cancelWarm = context.WithCancel(ctx)
			prepCh = make(chan error, 1)
			go func(next *step) {
				err := p.stage(prepCtx, next)
				if err == nil {
					next.warm, err = s.ftpConnect(next.src)(prepCtx)
				}
				prepCh <- err
			}(next)
		case perr := <-prepCh:
			// The hedge is ready (or failed to get ready) before this step
			// recovered: cancel it and wait for it to release the .part.
			cancelStep()
			return settle(<-resCh, perr)
		}
	}
}

// stage asks the step's source to bring the file onto disk before the
// disk-to-disk transfer (Section 4.4): one dial and one call, once per
// source per pull — a later step against the same source repeats it only
// if the earlier request failed. The wire carries the plan step so an
// overloaded source can shed the hottest retriers first.
func (p *pullPlan) stage(ctx context.Context, st *step) error {
	ctl := p.entry.Attrs[ctlAttrPrefix+st.src.Addr]
	if _, done := p.staged.Load(st.src.Addr); ctl == "" || done {
		return nil
	}
	s := p.s
	cl, err := rpc.DialContext(ctx, ctl, s.cfg.Cred, s.cfg.TrustRoots, s.rpcDialOpts()...)
	if err != nil {
		return err
	}
	defer cl.Close()
	var e rpc.Encoder
	e.String(p.lfn)
	_, err = cl.CallContext(rpc.WithAttempt(ctx, st.n), MethodStage, &e)
	switch {
	case err == nil:
		p.staged.Store(st.src.Addr, true)
	case errors.Is(err, admission.ErrOverloaded):
		// Cool the peer for the server-suggested retry-after so queued
		// work stops hammering it.
		s.health.ObserveOverload(ctl, retry.RetryAfterOf(err))
	}
	return err
}

// transfer is the body of one step: stage request, one GridFTP session
// that resumes any verified .part prefix, and verification against the
// catalog's published CRC (guarding against catalog/file drift), whose
// mismatch removes the file and fails the step. Stats are reported even
// on failure: the breaker feed and the wasted-bytes ledger need them.
func (p *pullPlan) transfer(ctx context.Context, st *step, progress func(int64)) (gridftp.TransferStats, error) {
	s, src, lfn := p.s, st.src, p.lfn
	// The source is only known here, after replica selection, so the
	// per-source concurrency cap is enforced at this layer rather than at
	// admission. Blocking counts against the job, not the queue.
	release, err := s.sched.AcquireSource(ctx, src.Addr)
	if err != nil {
		return gridftp.TransferStats{}, err
	}
	defer release()
	var stats gridftp.TransferStats
	if err = p.stage(ctx, st); err != nil {
		err = fmt.Errorf("core: stage %s at source: %w", lfn, err)
	} else {
		dial := s.ftpConnect(src)
		connect := func(ctx context.Context) (*gridftp.Client, error) {
			if cl := st.warm; cl != nil {
				st.warm = nil // the transfer owns and closes it now
				return cl, nil
			}
			return dial(ctx)
		}
		stats, err = gridftp.ReliableGetFileOpts(ctx, connect, src.Path, p.localPath,
			retry.Policy{Attempts: 1, Op: "gridftp.get", Registry: s.metrics},
			gridftp.GetFileOptions{Progress: progress, WrapWriter: s.cfg.StageWriter})
	}
	record := TransferRecord{
		LFN: lfn, Source: src.Addr, Bytes: stats.Bytes, Elapsed: stats.Elapsed,
		Attempts: st.n, RateMbps: stats.RateMbps(), When: time.Now(),
	}
	if err != nil {
		record.Failed, record.Error = true, err.Error()
		s.xferLog.add(record)
		return stats, err
	}
	s.xferLog.add(record)
	s.logger.Printf("gdmp[%s]: replicated %s from %s (%d bytes, step %d, %.2f Mbps)",
		s.cfg.Name, lfn, src.Addr, stats.Bytes, st.n, stats.RateMbps())
	if want := p.entry.Attrs[replica.AttrCRC]; want != "" && fmt.Sprintf("%08x", stats.CRC) != want {
		os.Remove(p.localPath)
		return stats, fmt.Errorf("%w: %s catalog=%s local=%08x", gridftp.ErrChecksum, lfn, want, stats.CRC)
	}
	return stats, nil
}

// ftpConnect builds the dial closure for one source's GridFTP endpoint:
// session options, per-source buffer tuning, and a scoreboard latency
// sample per successful dial. A hedge's warm-up dials through it too, so
// a prepared step pays the same handshake any step does.
func (s *Site) ftpConnect(src PFN) func(ctx context.Context) (*gridftp.Client, error) {
	return func(ctx context.Context) (*gridftp.Client, error) {
		opts := []gridftp.ClientOption{
			gridftp.WithParallelism(s.cfg.Parallelism),
			gridftp.WithTimeout(30 * time.Second),
			gridftp.WithMetrics(s.metrics),
		}
		if buf := s.bufferFor(src.Addr); buf > 0 {
			opts = append(opts, gridftp.WithBufferSize(buf))
		}
		if s.cfg.DialFunc != nil {
			opts = append(opts, gridftp.WithDialFunc(s.cfg.DialFunc))
		}
		start := time.Now()
		cl, err := gridftp.DialContext(ctx, src.Addr, s.cfg.Cred, s.cfg.TrustRoots, opts...)
		if err != nil {
			return nil, err
		}
		s.health.ObserveLatency(src.Addr, time.Since(start))
		if s.cfg.AutoTuneBuffers && s.cfg.BufferBytes == 0 && s.bufferFor(src.Addr) == 0 {
			// First contact with this source: run the negotiation once
			// and remember the outcome (the paper computes the optimum
			// per link, not per transfer).
			if buf, err := cl.AutoTune(src.Path, 512*1024); err == nil {
				s.tuneMu.Lock()
				s.tunedBuf[src.Addr] = buf
				s.tuneMu.Unlock()
				s.logger.Printf("gdmp[%s]: auto-tuned buffer for %s: %d bytes",
					s.cfg.Name, src.Addr, buf)
			} else {
				s.logger.Printf("gdmp[%s]: auto-tune against %s failed: %v",
					s.cfg.Name, src.Addr, err)
			}
		}
		return cl, nil
	}
}

// bufferFor returns the socket buffer to use against a source: the static
// configuration wins; otherwise a previously negotiated value, if any.
func (s *Site) bufferFor(addr string) int {
	if s.cfg.BufferBytes > 0 {
		return s.cfg.BufferBytes
	}
	s.tuneMu.Lock()
	defer s.tuneMu.Unlock()
	return s.tunedBuf[addr]
}
