package main

import (
	"math/rand"
	"time"

	"gdmp/internal/testbed"
	"gdmp/internal/workload"
)

// inputs derives everything a run feeds the grid from the workload seed
// alone: file contents, the Zipf access trace and the publish schedule.
// Sites receive only these generated inputs, never the seed.
type inputs struct{ seed int64 }

// Independent streams drawn from one seed.
const (
	streamFiles = iota + 1
	streamTrace
	streamSchedule
)

// subSeed mixes the seed with a stream and index (splitmix64), so streams
// never share random sequences.
func (in inputs) subSeed(stream, i int) int64 {
	z := uint64(in.seed) + uint64(stream)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// fileData is the content of the i-th file a workload publishes.
func (in inputs) fileData(i, size int) []byte {
	return testbed.MakeData(size, in.subSeed(streamFiles, i))
}

// Zipf-cache trace shape: the working set is zipfFiles files; each
// consumer's pool holds about zipfPoolFiles of them with their sidecars.
const (
	zipfFiles     = 64
	zipfFileBytes = 64 << 10
	zipfPoolFiles = 16
	zipfS         = 1.2
	zipfRequests  = 50000
)

func (in inputs) zipfTrace() (*workload.Trace, error) {
	return workload.GenerateTrace(workload.TraceConfig{
		Files:       zipfFiles,
		FileBytes:   zipfFileBytes,
		S:           zipfS,
		Requests:    zipfRequests,
		Sites:       consumerNames,
		Collections: 4,
		Seed:        in.subSeed(streamTrace, 0),
	})
}

// schedule returns the publish offsets of one ladder rung: rate per
// second over d, each slot jittered by up to a quarter interval.
func (in inputs) schedule(rung int, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(in.subSeed(streamSchedule, rung)))
	interval := float64(time.Second) / rate
	n := int(rate * d.Seconds())
	out := make([]time.Duration, n)
	for i := range out {
		j := (rng.Float64() - 0.5) * interval / 2
		out[i] = time.Duration(interval*(float64(i)+0.5) + j)
	}
	return out
}
