package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"gdmp/internal/health"
	"gdmp/internal/obs"
)

// renderStatus prints `gdmp status` from a site's metrics dump. Every
// line reads named registry series: a family the daemon does not export
// reads as zero, so its block is skipped, and series this client does not
// know are ignored — any daemon that serves gdmp.metrics renders, with no
// per-version decoding. addr names the site when the dump carries no
// gdmp_site_info series.
func renderStatus(w io.Writer, addr string, ss obs.Samples) {
	n := func(name string, fragments ...string) int64 { return int64(ss.Sum(name, fragments...)) }
	name := addr
	var peers []string                    // one per gdmp_health_state row
	rows := map[string]map[string]int64{} // peer -> gdmp_health_* name -> value
	for _, s := range ss {
		peer := s.Label("peer")
		switch {
		case s.Name == "gdmp_site_info":
			name = s.Label("site")
		case strings.HasPrefix(s.Name, health.MetricsPrefix+"_") && peer != "":
			if s.Name == "gdmp_health_state" {
				peers = append(peers, peer)
			}
			if rows[peer] == nil {
				rows[peer] = make(map[string]int64)
			}
			rows[peer][s.Name] += int64(s.Value)
		}
	}
	fmt.Fprintf(w, "site %s: %d local files, %d subscribers\n",
		name, n("gdmp_site_local_files"), n("gdmp_site_subscribers"))
	fmt.Fprintf(w, "transfers: %d ok, %d failed, %d bytes replicated, %d pending\n",
		n("gdmp_site_transfers_total", `outcome="ok"`), n("gdmp_site_transfers_total", `outcome="error"`),
		n("gdmp_site_transferred_bytes_total"), n("gdmp_site_pending_queue_depth"))

	restored, requeued := n("gdmp_recovery_files_restored"), n("gdmp_recovery_pulls_requeued")
	notices, quarantined := n("gdmp_recovery_notices_requeued"), n("gdmp_recovery_quarantined")
	if restored+requeued+quarantined+notices > 0 {
		fmt.Fprintf(w, "last restart: %d files restored, %d pulls requeued, %d notices requeued, %d quarantined\n",
			restored, requeued, notices, quarantined)
	}
	// The gauge exists once a journal is open: 1 means one of the
	// daemon's journals latched read-only after a failed append.
	if failed, ok := ss.Value("gdmp_journal_failed"); ok {
		state := "ok"
		if failed != 0 {
			state = "failed"
		}
		fmt.Fprintf(w, "journal: %s\n", state)
	}

	if poolCap := n("gdmp_pool_capacity_bytes"); poolCap > 0 {
		hits, misses := n("gdmp_pool_hits_total"), n("gdmp_pool_misses_total")
		rate := 0.0
		if hits+misses > 0 {
			rate = float64(hits) / float64(hits+misses)
		}
		fmt.Fprintf(w, "pool: %d/%d bytes, %.1f%% hit rate (%d hits, %d misses), %d evictions\n",
			n("gdmp_pool_occupancy_bytes"), poolCap, 100*rate, hits, misses, n("gdmp_pool_evictions_total"))
	}

	sidecars, rebuilds, fallbacks := n("gdmp_parity_sidecars_total"), n("gdmp_parity_rebuilds_total"), n("gdmp_parity_fallbacks_total")
	bytesLocal, bytesRepulled := n("gdmp_repair_bytes_local_total"), n("gdmp_repair_bytes_repulled_total")
	if sidecars+rebuilds+fallbacks+bytesLocal+bytesRepulled > 0 {
		fmt.Fprintf(w, "parity: %d sidecars, %d local rebuilds (%d bytes), %d fallbacks, %d bytes re-pulled\n",
			sidecars, rebuilds, bytesLocal, fallbacks, bytesRepulled)
	}

	gen, pushes, queries := n("gdmp_rls_digest_generation"), n("gdmp_rls_digest_pushes_ok_total"), n("gdmp_rls_rli_which_total")
	if gen+pushes+queries > 0 {
		fmt.Fprintf(w, "rls: digest gen %d (%d LFNs, %d pushes), %d RLI queries (%d false positives), locate p99 %dus\n",
			gen, n("gdmp_rls_digest_lfns"), pushes, queries, n("gdmp_rls_rli_false_positives_total"),
			int64(ss.Quantile("gdmp_rls_locate_seconds", 0.99)*1e6))
	}

	if len(peers) > 0 {
		fmt.Fprintln(w, "peer health:")
	}
	for _, peer := range peers {
		row := rows[peer]
		line := fmt.Sprintf("  %s: breaker %s", peer, health.State(row["gdmp_health_state"]))
		if fails := row["gdmp_health_consecutive_failures"]; fails > 0 {
			line += fmt.Sprintf(", %d consecutive failures", fails)
		}
		if kbps := row["gdmp_health_ewma_bandwidth_kbps"]; kbps > 0 {
			line += fmt.Sprintf(", %.1f Mbps", float64(kbps)/1000)
		}
		if us := row["gdmp_health_ewma_latency_micros"]; us > 0 {
			line += fmt.Sprintf(", rtt %dus", us)
		}
		if since := row["gdmp_health_last_transition_seconds"]; since > 0 {
			line += ", since " + time.Unix(since, 0).Format(time.RFC3339)
		}
		fmt.Fprintln(w, line)
	}

	// Rejected counts every refusal — deadline, queue_full, expired, shed,
	// draining — but not a caller that canceled while queued.
	admitted := n("gdmp_admission_admitted_total")
	rejected := n("gdmp_admission_rejected_total") - n("gdmp_admission_rejected_total", `reason="canceled"`)
	brownout := n("gdmp_brownout_active") != 0
	if admitted+rejected > 0 || brownout {
		mode := "normal"
		if brownout {
			mode = "brownout"
		}
		fmt.Fprintf(w, "admission: %s (load %.1f%%), %d admitted, %d rejected (%d expired, %d shed)\n",
			mode, float64(n("gdmp_brownout_load_milli"))/10, admitted, rejected,
			n("gdmp_admission_rejected_total", `reason="expired"`), n("gdmp_admission_rejected_total", `reason="shed"`))
		if entered := n("gdmp_brownout_entered_total"); entered > 0 {
			fmt.Fprintf(w, "brownout: entered %d times, %d background work units deferred\n",
				entered, n("gdmp_brownout_deferred_total"))
		}
	}
}
