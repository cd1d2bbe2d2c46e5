package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one call the benchmark made into a layer's public function, timed
// from outside. Spans of one operation share req; parent links a span to
// the span that caused it.
type span struct {
	name   string
	start  int64 // ns since the tracer's epoch
	end    int64
	parent int32 // index in the same tracer, -1 for a root
	req    uint64
}

// tracer records spans for one goroutine, so recording takes no lock. A nil
// *tracer records nothing: the untraced run passes nil and pays one nil
// check per call site.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) begin(name string, parent int32, req uint64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.epoch)), parent: parent, req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
}

// layerStat aggregates every span of one name.
type layerStat struct {
	count int64
	total int64 // summed duration, ns
	self  int64 // summed self time, ns
}

func (s layerStat) meanUS() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.total) / float64(s.count) / 1e3
}

func (s layerStat) selfUS() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.self) / float64(s.count) / 1e3
}

// summarize aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover; overlapping
// children count once, and a child's time outside its parent counts for
// nothing.
func summarize(tracers []*tracer) map[string]layerStat {
	out := map[string]layerStat{}
	for _, t := range tracers {
		covered := childCover(t.spans)
		for i, s := range t.spans {
			st := out[s.name]
			st.count++
			st.total += s.end - s.start
			st.self += s.end - s.start - covered[i]
			out[s.name] = st
		}
	}
	return out
}

// childCover returns, per span, the length of the union of its children's
// intervals clipped to its own.
func childCover(spans []span) []int64 {
	covered := make([]int64, len(spans))
	var kids []int32
	for i, s := range spans {
		if s.parent >= 0 {
			kids = append(kids, int32(i))
		}
	}
	sort.Slice(kids, func(a, b int) bool {
		ka, kb := spans[kids[a]], spans[kids[b]]
		if ka.parent != kb.parent {
			return ka.parent < kb.parent
		}
		return ka.start < kb.start
	})
	for i := 0; i < len(kids); {
		p := spans[kids[i]].parent
		lo, hi := spans[p].start, spans[p].end
		var sum int64
		runStart, runEnd := int64(-1), int64(-1)
		for ; i < len(kids) && spans[kids[i]].parent == p; i++ {
			s, e := max(spans[kids[i]].start, lo), min(spans[kids[i]].end, hi)
			if e <= s {
				continue
			}
			if s > runEnd {
				sum += runEnd - runStart
				runStart, runEnd = s, e
			} else if e > runEnd {
				runEnd = e
			}
		}
		sum += runEnd - runStart
		covered[p] = sum
	}
	return covered
}

// waitMicros is the mean part of a crpd round trip that no measured layer
// accounts for: round-trip time minus the daemon's handler time and the
// request decode and reply encode time, per request. It is the socket
// syscalls, the single read loop, the worker-queue hop and the write lock.
// handlerSeconds is the handler time summed over the same requests;
// codecNanos sums every decode and encode span.
func waitMicros(rtt layerStat, handlerSeconds float64, codecNanos int64) float64 {
	if rtt.count == 0 {
		return 0
	}
	rest := float64(rtt.total) - handlerSeconds*1e9 - float64(codecNanos)
	return rest / float64(rtt.count) / 1e3
}

// traceFile is where a workload's traced run writes its spans, under the
// build directory of the checkout.
func traceFile(workload string) string {
	return filepath.Join(".bench_build", "perfbench", "traces", workload+".tsv.gz")
}

// writeTrace dumps every span as gzipped TSV (tracer, id, parent, req,
// name, start_ns, end_ns).
func writeTrace(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "tracer\tid\tparent\treq\tname\tstart_ns\tend_ns")
	for ti, t := range tracers {
		for i, s := range t.spans {
			fmt.Fprintf(bw, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", ti, i, s.parent, s.req, s.name, s.start, s.end)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
