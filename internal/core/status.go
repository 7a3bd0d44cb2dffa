package core

import (
	"sync"
	"time"
)

// TransferRecord is one completed (or failed) replication, the site-level
// analogue of GridFTP's integrated instrumentation: the paper's production
// deployment lived and died by being able to see what moved where, how
// fast, and with how many restarts.
type TransferRecord struct {
	LFN      string
	Source   string // GridFTP endpoint the replica came from
	Bytes    int64
	Elapsed  time.Duration
	Attempts int // the pull's plan step this record reports (1 = first)
	RateMbps float64
	When     time.Time
	Failed   bool
	Error    string
}

// transferLogLimit bounds the history TransferHistory returns.
const transferLogLimit = 256

// transferLog keeps a bounded history of replication activity and counts
// every record into gdmp_site_transfers_total and
// gdmp_site_transferred_bytes_total, the totals `gdmp status` prints.
type transferLog struct {
	mu      sync.Mutex
	records []TransferRecord
	met     *siteMetrics
}

func (l *transferLog) add(r TransferRecord) {
	if r.Failed {
		l.met.transfers.WithLabelValues("error").Inc()
	} else {
		l.met.transfers.WithLabelValues("ok").Inc()
		l.met.transferredBytes.Add(r.Bytes)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.records = append(l.records, r)
	if len(l.records) > transferLogLimit {
		l.records = l.records[len(l.records)-transferLogLimit:]
	}
}

// TransferHistory returns the site's recent replication records.
func (s *Site) TransferHistory() []TransferRecord {
	s.xferLog.mu.Lock()
	defer s.xferLog.mu.Unlock()
	return append([]TransferRecord(nil), s.xferLog.records...)
}
