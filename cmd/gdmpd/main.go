// Command gdmpd runs a complete GDMP site daemon (Section 4): the GDMP
// server with its subscription, notification, catalog, and staging
// services, plus the site's GridFTP server over the local disk pool,
// registered against the Grid's central replica catalog.
//
// Usage:
//
//	gdmpd -name cern.ch -data /pool -rc replicad.host:39000 \
//	      -cred certs/cern.pem -ca certs/ca.pem \
//	      [-listen :38000] [-ftp-listen :2811] [-metrics :9090] \
//	      [-state-dir /var/lib/gdmp] [-drain-timeout 30s] \
//	      [-rc-serve :39000 -rc-save-every 1m] \
//	      [-tape /tape -pool-capacity 1073741824 -pool-policy lru] \
//	      [-prefetch 3] [-federation] \
//	      [-auto] [-parallel 4] [-tcp-buffer 1048576] [-gridmap gridmap] \
//	      [-retry-attempts 3 -retry-base 50ms -retry-max 2s] \
//	      [-transfer-attempts 3] [-notify-failures 3] \
//	      [-scrub-interval 1h -scrub-rate 8388608] \
//	      [-anti-entropy-interval 6h] \
//	      [-quarantine-max-age 168h -quarantine-max-count 1024] \
//	      [-parity-k 8 -parity-m 2]
//
// With -tape, the site runs a Mass Storage System: the pool acts as a cache
// and files are staged from the tape directory on demand; -pool-policy
// picks the eviction order (lru or fifo) and -prefetch N warms a
// collection's remaining members after N pool misses hit it. With
// -federation, the site maintains an object database federation and can
// replicate "objectivity" files (arrivals are attached automatically).
// With -metrics, the daemon serves its instrumentation registry in the
// Prometheus text exposition format at http://<addr>/metrics (the same
// dump `gdmp stats` fetches over the authenticated control channel).
//
// With -state-dir, the site is crash-safe: every acknowledged mutation
// (publications, subscriptions, notification queues, pending pulls, the
// local catalog) is journaled under the directory before it is acked, and
// a restart replays the journal, quarantines suspect files under
// <state-dir>/quarantine, and requeues unfinished transfers. SIGTERM then
// drains gracefully: admissions stop, in-flight transfers get
// -drain-timeout to finish, and whatever remains stays journaled for the
// next start (SIGINT still shuts down immediately).
//
// With -scrub-interval, the site self-heals: a background scrubber
// re-reads every cataloged replica at the -scrub-rate byte pace and
// verifies its CRC, quarantining corrupt bytes and re-replicating from a
// surviving location. With -anti-entropy-interval, the site periodically
// swaps compact (LFN, size, CRC) digests with its producers and
// subscribers, pulling files whose notifications were lost and
// withdrawing dangling replica-catalog locations. -quarantine-max-age
// and -quarantine-max-count bound the quarantine directory. `gdmp fsck`
// triggers a full on-demand integrity pass.
//
// With -parity-k/-parity-m, every published or landed replica gets an
// erasure-coded parity sidecar (k data + m parity blocks, Reed-Solomon
// over GF(2^8)): the scrubber then verifies block-by-block and rebuilds
// up to m damaged blocks in place from local bytes, falling back to the
// WAN re-pull only when the damage exceeds the parity budget or the
// sidecar itself is unusable.
//
// With -rc-serve, the daemon additionally hosts an embedded replica
// catalog server on the given address — a one-process Grid for small
// deployments. With -state-dir, the embedded catalog is journaled under
// <state-dir>/rc (every mutation write-ahead logged before the ack,
// compacted into per-shard snapshots every -rc-save-every); a legacy
// <state-dir>/rc.snap is imported once while the store is empty. Without
// -state-dir it is memory only. -rc-shards sets its LFN shard count.
//
// With -digest-interval, the site joins the Replica Location Index: every
// interval it condenses its local catalog into a bloom digest and pushes
// it to the RLI co-hosted with the catalog server, where it lives as soft
// state for -digest-ttl (default 3x the interval). Peers whose central
// lookups come up empty then ask the RLI which sites might hold the file
// and confirm with per-site LRC point queries (a digest false positive —
// rate tuned by -digest-fp — costs one wasted query, never a wrong
// answer).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"gdmp/internal/admission"
	"gdmp/internal/core"
	"gdmp/internal/gsi"
	"gdmp/internal/health"
	"gdmp/internal/mss"
	"gdmp/internal/objectstore"
	"gdmp/internal/objrep"
	"gdmp/internal/obs"
	"gdmp/internal/replica"
	"gdmp/internal/retry"
)

func main() {
	name := flag.String("name", "", "site name, e.g. cern.ch (required)")
	data := flag.String("data", "", "disk pool directory (required)")
	rcAddr := flag.String("rc", "", "replica catalog address (required)")
	credPath := flag.String("cred", "", "site credential file (required)")
	caPath := flag.String("ca", "", "trust anchor certificate (required)")
	listen := flag.String("listen", ":38000", "GDMP control address")
	ftpListen := flag.String("ftp-listen", ":2811", "GridFTP data address")
	tape := flag.String("tape", "", "tape directory (enables the MSS)")
	poolCap := flag.Int64("pool-capacity", 1<<30, "disk pool capacity in bytes (with -tape)")
	poolPolicy := flag.String("pool-policy", "lru", "disk pool eviction policy: lru or fifo (with -tape)")
	prefetch := flag.Int("prefetch", 0, "pool misses per collection before prefetching the rest (0 = off)")
	federation := flag.Bool("federation", false, "run an object database federation")
	auto := flag.Bool("auto", false, "auto-replicate files on notification")
	parallel := flag.Int("parallel", 2, "parallel TCP streams for transfers")
	tcpBuffer := flag.Int("tcp-buffer", 0, "TCP socket buffer size (0 = OS default)")
	autoTune := flag.Bool("auto-tune", false, "negotiate TCP buffers per source (RTT x bandwidth)")
	gridmap := flag.String("gridmap", "", "authorization gridmap (default: allow all)")
	metricsAddr := flag.String("metrics", "", "serve /metrics over HTTP on this address (empty = off)")
	retryAttempts := flag.Int("retry-attempts", 3, "attempt cap for retried network operations other than pulls")
	retryBase := flag.Duration("retry-base", 50*time.Millisecond, "initial backoff between retries")
	retryMax := flag.Duration("retry-max", 2*time.Second, "backoff ceiling between retries")
	transferAttempts := flag.Int("transfer-attempts", 3, "attempts of one pull across every source (at least one per replica)")
	notifyFailures := flag.Int("notify-failures", 3, "consecutive notification failures before a subscriber is suspect")
	pullWorkers := flag.Int("pull-workers", 4, "concurrent pull replications")
	perSource := flag.Int("per-source", 0, "max concurrent transfers per source site (0 = unlimited)")
	stateDir := flag.String("state-dir", "", "journal directory for crash-safe state (empty = no persistence)")
	scrubInterval := flag.Duration("scrub-interval", 0, "background integrity-scrub period (0 = off)")
	scrubRate := flag.Int64("scrub-rate", 8<<20, "scrubber disk-read cap in bytes/second (0 = unlimited)")
	antiEntropy := flag.Duration("anti-entropy-interval", 0, "digest-exchange period with producers and subscribers (0 = off)")
	quarMaxAge := flag.Duration("quarantine-max-age", 168*time.Hour, "sweep quarantined files older than this (0 = keep forever)")
	quarMaxCount := flag.Int("quarantine-max-count", 1024, "keep at most this many quarantined files (0 = unlimited)")
	parityK := flag.Int("parity-k", 0, "parity sidecar data blocks per file (0 = parity off)")
	parityM := flag.Int("parity-m", 0, "parity blocks per file; scrub heals up to this many damaged blocks locally")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM lets in-flight transfers finish")
	rcServe := flag.String("rc-serve", "", "also run an embedded replica catalog server on this address")
	rcSaveEvery := flag.Duration("rc-save-every", time.Minute, "embedded catalog snapshot/compaction interval (with -rc-serve and -state-dir)")
	rcShards := flag.Int("rc-shards", replica.DefaultShards, "embedded catalog shard count (with -rc-serve; rounded up to a power of two)")
	digestInterval := flag.Duration("digest-interval", 0, "RLI digest push period (0 = off)")
	digestTTL := flag.Duration("digest-ttl", 0, "RLI digest soft-state lifetime (0 = 3x -digest-interval)")
	digestFP := flag.Float64("digest-fp", 0, "bloom digest false-positive rate (0 = 0.01)")
	hedgeDeadline := flag.Duration("hedge-deadline", 0, "cold-start stall deadline before a pull hedges to a second replica (0 = 10s, negative = off)")
	breakerFailures := flag.Int("breaker-failures", 0, "consecutive failures that open a peer's circuit breaker (0 = 3)")
	breakerReopen := flag.Duration("breaker-reopen", 0, "base delay before an open breaker admits a probe (0 = 2s)")
	breakerReopenMax := flag.Duration("breaker-reopen-max", 0, "ceiling on the decorrelated reopen delay (0 = 60s)")
	breakerProbes := flag.Int("breaker-probes", 0, "probe successes that close a half-open breaker (0 = 1)")
	rpcMaxConns := flag.Int("rpc-max-conns", 0, "max concurrent GDMP server connections (0 = unlimited)")
	admitControl := flag.Int("admit-control", 0, "concurrent control-plane RPCs admitted (0 = 64)")
	admitBulk := flag.Int("admit-bulk", 0, "concurrent bulk data operations admitted (0 = 8)")
	admitBackground := flag.Int("admit-background", 0, "concurrent background RPCs admitted (0 = 2)")
	brownoutEnter := flag.Float64("brownout-enter", 0, "load signal that enters brownout, 0..1 (0 = 0.75)")
	brownoutExit := flag.Float64("brownout-exit", 0, "load signal that exits brownout (0 = enter/3)")
	maxQueuedPulls := flag.Int("max-queued-pulls", 0, "pull queue depth cap with priority-aware rejection (0 = unbounded)")
	flag.Parse()

	pol := retry.DefaultPolicy()
	pol.Attempts = *retryAttempts
	pol.BaseDelay = *retryBase
	pol.MaxDelay = *retryMax
	if err := run(params{
		name: *name, data: *data, rcAddr: *rcAddr, credPath: *credPath,
		caPath: *caPath, listen: *listen, ftpListen: *ftpListen,
		tape: *tape, poolCap: *poolCap, poolPolicy: *poolPolicy,
		prefetch: *prefetch, federation: *federation,
		auto: *auto, parallel: *parallel, tcpBuffer: *tcpBuffer,
		autoTune: *autoTune, gridmap: *gridmap, metricsAddr: *metricsAddr,
		retry: pol, transferAttempts: *transferAttempts,
		notifyFailures: *notifyFailures,
		pullWorkers:    *pullWorkers, perSource: *perSource,
		stateDir: *stateDir, drainTimeout: *drainTimeout,
		rcServe: *rcServe, rcSaveEvery: *rcSaveEvery, rcShards: *rcShards,
		digestInterval: *digestInterval, digestTTL: *digestTTL, digestFP: *digestFP,
		scrubInterval: *scrubInterval, scrubRate: *scrubRate,
		antiEntropy:   *antiEntropy,
		quarMaxAge:    *quarMaxAge,
		quarMaxCount:  *quarMaxCount,
		parityK:       *parityK,
		parityM:       *parityM,
		hedgeDeadline: *hedgeDeadline,
		health: health.Config{
			FailureThreshold: *breakerFailures,
			ReopenBase:       *breakerReopen,
			ReopenMax:        *breakerReopenMax,
			ProbeSuccesses:   *breakerProbes,
		},
		admission: admission.Config{
			ControlSlots:    *admitControl,
			BulkSlots:       *admitBulk,
			BackgroundSlots: *admitBackground,
			BrownoutEnter:   *brownoutEnter,
			BrownoutExit:    *brownoutExit,
		},
		rpcMaxConns:    *rpcMaxConns,
		maxQueuedPulls: *maxQueuedPulls,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "gdmpd:", err)
		os.Exit(1)
	}
}

type params struct {
	name, data, rcAddr, credPath, caPath string
	listen, ftpListen, tape, gridmap     string
	metricsAddr                          string
	poolCap                              int64
	poolPolicy                           string
	prefetch                             int
	federation, auto, autoTune           bool
	parallel, tcpBuffer                  int
	retry                                retry.Policy
	transferAttempts, notifyFailures     int
	pullWorkers, perSource               int
	stateDir                             string
	drainTimeout                         time.Duration
	rcServe                              string
	rcSaveEvery                          time.Duration
	rcShards                             int
	digestInterval, digestTTL            time.Duration
	digestFP                             float64
	scrubInterval, antiEntropy           time.Duration
	scrubRate                            int64
	quarMaxAge                           time.Duration
	quarMaxCount                         int
	parityK, parityM                     int
	hedgeDeadline                        time.Duration
	health                               health.Config
	admission                            admission.Config
	rpcMaxConns                          int
	maxQueuedPulls                       int
}

// serveMetrics exposes a registry at /metrics on addr, Prometheus-style.
// It returns the bound listener so the caller can close it on shutdown.
func serveMetrics(addr string, reg *obs.Registry) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteText(w)
	})
	go http.Serve(ln, mux)
	return ln, nil
}

func run(p params) error {
	if p.name == "" || p.data == "" || p.credPath == "" || p.caPath == "" {
		return fmt.Errorf("-name, -data, -cred and -ca are required")
	}
	if p.rcAddr == "" && p.rcServe == "" {
		return fmt.Errorf("-rc is required (or run the catalog here with -rc-serve)")
	}
	cred, err := gsi.LoadCredential(p.credPath)
	if err != nil {
		return err
	}
	anchor, err := gsi.LoadCertificate(p.caPath)
	if err != nil {
		return err
	}
	var acl *gsi.ACL
	if p.gridmap != "" {
		f, err := os.Open(p.gridmap)
		if err != nil {
			return err
		}
		acl, err = gsi.ParseGridmap(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		acl = gsi.NewACL()
		core.AllowSiteUseAll(acl)
		objrep.AllowServiceUseAll(acl)
		if p.rcServe != "" {
			replica.AllowCatalogUseAll(acl)
		}
	}

	// The embedded replica catalog (if any) must be up before the site
	// dials it.
	var rcSrv *replica.Server
	var rcCatalog *replica.Catalog
	var rcStore *replica.Store
	var snapStop, snapStopped chan struct{}
	if p.rcServe != "" {
		rcCatalog = replica.New(replica.Options{Shards: p.rcShards})
		if p.stateDir != "" {
			rcDir := filepath.Join(p.stateDir, "rc")
			if err := os.MkdirAll(rcDir, 0o755); err != nil {
				return err
			}
			rcStore, err = replica.OpenStore(rcDir, rcCatalog, replica.StoreOptions{})
			if err != nil {
				return fmt.Errorf("open embedded catalog store: %w", err)
			}
			st := rcCatalog.Stats()
			if legacy := filepath.Join(p.stateDir, "rc.snap"); st.Files+st.Collections == 0 {
				// One-time import of the pre-store single-file snapshot;
				// compaction adopts it into per-shard snapshots.
				if err := rcCatalog.LoadFile(legacy); err == nil {
					if err := rcStore.Compact(); err != nil {
						return fmt.Errorf("adopt legacy catalog snapshot: %w", err)
					}
					st = rcCatalog.Stats()
					log.Printf("embedded catalog: imported legacy %s (%d files, %d replicas)",
						legacy, st.Files, st.Replicas)
				} else if !os.IsNotExist(err) {
					return fmt.Errorf("load embedded catalog snapshot: %w", err)
				}
			} else {
				log.Printf("embedded catalog: recovered %s (%d files, %d replicas, %d shards)",
					rcDir, st.Files, st.Replicas, rcCatalog.ShardCount())
			}
		}
		rcSrv = replica.NewServer(rcCatalog, cred, []*gsi.Certificate{anchor}, acl)
		rcLn, err := net.Listen("tcp", p.rcServe)
		if err != nil {
			return err
		}
		go rcSrv.Serve(rcLn)
		defer rcSrv.Close()
		log.Printf("embedded replica catalog on %s (%d shards)", rcLn.Addr(), rcCatalog.ShardCount())
		if p.rcAddr == "" {
			p.rcAddr = rcLn.Addr().String()
		}
		if rcStore != nil && p.rcSaveEvery > 0 {
			snapStop, snapStopped = make(chan struct{}), make(chan struct{})
			go func() {
				defer close(snapStopped)
				t := time.NewTicker(p.rcSaveEvery)
				defer t.Stop()
				for {
					select {
					case <-t.C:
						if _, err := rcStore.MaybeCompact(); err != nil {
							log.Printf("embedded catalog compact: %v", err)
						}
					case <-snapStop:
						return
					}
				}
			}()
		}
	}

	cfg := core.Config{
		Name:            p.name,
		DataDir:         p.data,
		Cred:            cred,
		TrustRoots:      []*gsi.Certificate{anchor},
		ACL:             acl,
		ReplicaCatalog:  p.rcAddr,
		AutoReplicate:   p.auto,
		Parallelism:     p.parallel,
		BufferBytes:     p.tcpBuffer,
		AutoTuneBuffers: p.autoTune,
		GDMPListen:      p.listen,
		FTPListen:       p.ftpListen,
		StateDir:        p.stateDir,
		Logger:          log.Default(),

		Retry:                  p.retry,
		TransferAttempts:       p.transferAttempts,
		NotifyFailureThreshold: p.notifyFailures,
		PullWorkers:            p.pullWorkers,
		PerSourceLimit:         p.perSource,

		ScrubInterval:       p.scrubInterval,
		ScrubRateBytes:      p.scrubRate,
		AntiEntropyInterval: p.antiEntropy,
		QuarantineMaxAge:    p.quarMaxAge,
		QuarantineMaxCount:  p.quarMaxCount,
		ParityK:             p.parityK,
		ParityM:             p.parityM,

		DigestInterval: p.digestInterval,
		DigestTTL:      p.digestTTL,
		DigestFPRate:   p.digestFP,

		Health:        p.health,
		HedgeDeadline: p.hedgeDeadline,

		Admission:      p.admission,
		RPCMaxConns:    p.rpcMaxConns,
		MaxQueuedPulls: p.maxQueuedPulls,
	}
	cfg.PrefetchThreshold = p.prefetch
	if p.tape != "" {
		var policy mss.EvictionPolicy
		switch p.poolPolicy {
		case "", "lru":
			policy = mss.LRU
		case "fifo":
			policy = mss.FIFO
		default:
			return fmt.Errorf("unknown -pool-policy %q (want lru or fifo)", p.poolPolicy)
		}
		m, err := mss.New(mss.Config{
			TapeDir:      p.tape,
			PoolDir:      p.data,
			PoolCapacity: p.poolCap,
			Policy:       policy,
		})
		if err != nil {
			return err
		}
		cfg.MSS = m
	}
	if p.federation {
		cfg.Federation = objectstore.NewFederation()
	}

	site, err := core.NewSite(cfg)
	if err != nil {
		return err
	}
	if p.federation {
		if err := objrep.EnableService(site); err != nil {
			return err
		}
	}
	if p.metricsAddr != "" {
		mln, err := serveMetrics(p.metricsAddr, site.Metrics())
		if err != nil {
			site.Close()
			return err
		}
		defer mln.Close()
		log.Printf("metrics at http://%s/metrics", mln.Addr())
	}
	if rs := site.Recovery(); rs != (core.RecoveryStats{}) {
		log.Printf("recovery: %d files restored, %d notices requeued, %d pulls requeued, %d parts resumable, %d quarantined",
			rs.FilesRestored, rs.NoticesRequeued, rs.PullsRequeued, rs.PartsResumed, rs.Quarantined)
	}
	log.Printf("GDMP site %s up: control %s, data %s, catalog %s",
		site.Name(), site.Addr(), site.DataAddr(), p.rcAddr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	var err2 error
	if s == syscall.SIGTERM && p.drainTimeout > 0 {
		// Graceful drain: stop admissions, give in-flight transfers until
		// the deadline, journal the rest as pending for the next start.
		log.Printf("received %v, draining (up to %v)", s, p.drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), p.drainTimeout)
		abandoned, derr := site.Drain(ctx)
		cancel()
		if derr != nil {
			log.Printf("drain: %d transfers abandoned (journaled as pending): %v", len(abandoned), derr)
		}
	} else {
		log.Printf("received %v, shutting down", s)
		err2 = site.Close()
	}
	// Stop (and join) the periodic compaction goroutine before the final
	// compact, so two never race on the same store.
	if snapStop != nil {
		close(snapStop)
		<-snapStopped
	}
	if rcStore != nil {
		if err := rcStore.Close(); err != nil {
			log.Printf("close embedded catalog store: %v", err)
		} else {
			log.Printf("embedded catalog compacted under %s", filepath.Join(p.stateDir, "rc"))
		}
	}
	return err2
}
