package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"slices"
)

// layer names one traced boundary: a call the driver makes into the
// program. lyTick is the parent span of every span of one tick.
type layer uint8

const (
	lyTick layer = iota
	lyIngest
	lyPump
	lyStep
	lyState
	lyAudit
	lyAggregate
	lyPlace
	lyAdmit
	lyRemove
	numLayers
)

var layerNames = [numLayers]string{"tick", "ingest", "pump", "step", "state", "audit", "aggregate", "place", "admit", "remove"}

// span is one timed call; start and end are nanoseconds since the run's
// origin. room is -1 for fleet-wide spans.
type span struct {
	start, end int64
	tick, room int32
	layer      layer
	worker     uint8
}

// spanLimit bounds the spans one goroutine keeps in memory (16 MiB).
const spanLimit = 1 << 19

// spanBuf keeps spans in memory up to limit; later spans are counted but
// not kept.
type spanBuf struct {
	spans   []span
	limit   int
	dropped int
}

func newSpanBuf(limit int) spanBuf { return spanBuf{limit: limit} }

func (b *spanBuf) add(s span) {
	if len(b.spans) >= b.limit {
		b.dropped++
		return
	}
	b.spans = append(b.spans, s)
}

func (b *spanBuf) reset() { b.spans, b.dropped = b.spans[:0], 0 }

// reserve grows the buffer for n more spans now, so that adding them
// inside a timed batch does not allocate.
func (b *spanBuf) reserve(n int) {
	if b.limit > len(b.spans) {
		b.spans = slices.Grow(b.spans, min(n, b.limit-len(b.spans)))
	}
}

// writeSpans writes every kept span as CSV. Each span's parent is the
// tick span with the same tick.
func writeSpans(path string, bufs ...*spanBuf) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "tick,room,layer,worker,start_ns,end_ns")
	for _, b := range bufs {
		for _, s := range b.spans {
			fmt.Fprintf(bw, "%d,%d,%s,%d,%d,%d\n", s.tick, s.room, layerNames[s.layer], s.worker, s.start, s.end)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// accum collects one goroutine's per-layer counts and times. Times,
// allocations and idle are filled only in traced runs.
type accum struct {
	ns            [numLayers]int64
	calls, allocs [numLayers]uint64

	publishSamples, pumpSamples, stateCalls uint64
	enforced, restored                      uint64
	cleanNS, overdrawNS                     int64
	cleanRounds, overdrawRounds             uint64
	plainTickNS, probeTickNS                int64
	plainTicks, probeTicks                  uint64
	idleNS, sysNS, genNS                    int64
	gcCycles                                uint64
	gcShare                                 float64
}

// merge adds o's counts into a (the gc and generator figures are the main
// goroutine's alone).
func (a *accum) merge(o *accum) {
	for i := range a.ns {
		a.ns[i] += o.ns[i]
		a.calls[i] += o.calls[i]
		a.allocs[i] += o.allocs[i]
	}
	a.publishSamples += o.publishSamples
	a.pumpSamples += o.pumpSamples
	a.stateCalls += o.stateCalls
	a.enforced += o.enforced
	a.restored += o.restored
	a.cleanNS += o.cleanNS
	a.overdrawNS += o.overdrawNS
	a.cleanRounds += o.cleanRounds
	a.overdrawRounds += o.overdrawRounds
	a.plainTickNS += o.plainTickNS
	a.probeTickNS += o.probeTickNS
	a.plainTicks += o.plainTicks
	a.probeTicks += o.probeTicks
}

// allocReader reads the process's cumulative heap allocation count.
type allocReader struct{ s [1]metrics.Sample }

func (r *allocReader) read() uint64 {
	r.s[0].Name = "/gc/heap/allocs:objects"
	metrics.Read(r.s[:])
	return r.s[0].Value.Uint64()
}

// gcSample is the runtime's GC cycle count and CPU split.
type gcSample struct{ cycles, gcCPU, totalCPU float64 }

func (g *gcSample) read() {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	g.cycles = float64(s[0].Value.Uint64())
	g.gcCPU = s[1].Value.Float64()
	g.totalCPU = s[2].Value.Float64()
}

// liveHeapMB is the heap held by live objects; call it right after a GC.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
