package core

import (
	"fmt"
	"sort"
	"sync"

	"gdmp/internal/obs"
)

// FileState describes where a local file currently is.
type FileState string

const (
	// StateDisk means the file is in the disk pool, ready to serve.
	StateDisk FileState = "disk"

	// StateTape means the file was evicted to (or only exists in) the
	// Mass Storage System and needs staging before a transfer.
	StateTape FileState = "tape"
)

// FileInfo is one entry of a site's local file catalog.
type FileInfo struct {
	// LFN is the logical file name registered in the replica catalog.
	LFN string

	// Path is the site-relative path under the data directory; it is also
	// the path component of the site's PFN for this file.
	Path string

	// Size in bytes.
	Size int64

	// CRC32 is the IEEE CRC of the content, hex-encoded.
	CRC32 string

	// FileType names the replication plug-in ("flat", "objectivity", ...).
	FileType string

	// State records disk/tape residency.
	State FileState
}

// localCatalog is the site's own file table — the per-site catalog whose
// transfer to other sites provides GDMP's failure recovery ("obtaining a
// remote site's file catalog for failure recovery").
type localCatalog struct {
	mu      sync.RWMutex
	byLFN   map[string]FileInfo
	byPath  map[string]string        // site-relative path -> LFN
	waiters map[string]chan struct{} // lfn -> closed when the entry appears
	files   *obs.Gauge               // gdmp_site_local_files, set under mu
}

func newLocalCatalog(files *obs.Gauge) *localCatalog {
	return &localCatalog{
		byLFN:   make(map[string]FileInfo),
		byPath:  make(map[string]string),
		waiters: make(map[string]chan struct{}),
		files:   files,
	}
}

func (c *localCatalog) put(info FileInfo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.byLFN[info.LFN]; ok && old.Path != info.Path {
		delete(c.byPath, old.Path)
	}
	c.byLFN[info.LFN] = info
	c.byPath[info.Path] = info.LFN
	c.files.Set(int64(len(c.byLFN)))
	if ch, ok := c.waiters[info.LFN]; ok {
		close(ch)
		delete(c.waiters, info.LFN)
	}
}

// await returns a channel that is closed once the LFN is present in the
// catalog (immediately if it already is). All waiters for one LFN share a
// channel, so an LFN that never arrives costs one channel, not one per
// call.
func (c *localCatalog) await(lfn string) <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byLFN[lfn]; ok {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	ch, ok := c.waiters[lfn]
	if !ok {
		ch = make(chan struct{})
		c.waiters[lfn] = ch
	}
	return ch
}

func (c *localCatalog) get(lfn string) (FileInfo, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	info, ok := c.byLFN[lfn]
	return info, ok
}

func (c *localCatalog) remove(lfn string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if info, ok := c.byLFN[lfn]; ok && c.byPath[info.Path] == lfn {
		delete(c.byPath, info.Path)
	}
	delete(c.byLFN, lfn)
	c.files.Set(int64(len(c.byLFN)))
}

// getByPath resolves a site-relative path back to its catalog entry — the
// reverse lookup the disk-pool eviction callback needs, since the pool
// names files by path, not LFN.
func (c *localCatalog) getByPath(p string) (FileInfo, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	lfn, ok := c.byPath[p]
	if !ok {
		return FileInfo{}, false
	}
	info, ok := c.byLFN[lfn]
	return info, ok
}

func (c *localCatalog) setState(lfn string, st FileState) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	info, ok := c.byLFN[lfn]
	if !ok {
		return fmt.Errorf("core: %q not in local catalog", lfn)
	}
	info.State = st
	c.byLFN[lfn] = info
	return nil
}

func (c *localCatalog) list() []FileInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]FileInfo, 0, len(c.byLFN))
	for _, info := range c.byLFN {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LFN < out[j].LFN })
	return out
}
