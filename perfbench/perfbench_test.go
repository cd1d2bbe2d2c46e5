package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"
)

// streamBytes serializes everything a workload feeds the program for a
// seed: the seeded history and every socket's or round's op stream.
func streamBytes(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	history := func(h []seedProbe) {
		for _, p := range h {
			fmt.Fprintf(&buf, "%s %d %v %s\n", p.node, p.at.Unix(), p.replicas, p.span)
		}
	}
	switch name {
	case "point_udp", "scan_ingest":
		wl := pointWorkload(seed)
		if name == "scan_ingest" {
			wl = scanWorkload(seed)
		}
		history(wl.history)
		for i := range wl.bins {
			for _, cyc := range wl.streams(i) {
				for _, op := range cyc {
					buf.Write(op.wire)
				}
			}
		}
		for _, req := range wl.probes {
			fmt.Fprintf(&buf, "%+v\n", req)
		}
	case "gossip_sync":
		wl := newGossipWorkload(seed, gossipFull)
		wl.genRounds(seed)
		history(wl.history)
		for _, rd := range wl.rounds {
			for _, w := range rd.writes {
				fmt.Fprintf(&buf, "%d %s %v\n", w.daemon, w.node, w.replicas)
			}
			fmt.Fprintf(&buf, "%v\n", rd.reads)
		}
	default:
		t.Fatalf("no stream for %s", name)
	}
	return buf.Bytes()
}

func TestOpStreamRepeatsForSeed(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			a, b := streamBytes(t, wl.name, 7), streamBytes(t, wl.name, 7)
			if !bytes.Equal(a, b) {
				t.Fatal("same seed, different op streams")
			}
			if bytes.Equal(a, streamBytes(t, wl.name, 8)) {
				t.Fatal("different seeds, same op stream")
			}
		})
	}
}

func TestGossipCountsRepeatForSeed(t *testing.T) {
	spec := gossipSpec{metros: 20, perMetro: 25, writes: 60, reads: 2, countRounds: 5}
	run := func() gossipCounts {
		wl := newGossipWorkload(3, spec)
		m, err := setupMesh(wl, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		wl.genRounds(3)
		m.runRounds(wl, 0, warmRounds, nil)
		st, counted := m.runRounds(wl, 0, spec.countRounds, nil)
		if st.failed != 0 {
			t.Fatalf("%d ops failed: %v", st.failed, st.firstErr)
		}
		if err := m.snapshotsEqual(); err != nil {
			t.Fatal(err)
		}
		return counted
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("same seed, different gossip traffic: %+v vs %+v", first, second)
	}
	if first.datagrams == 0 || first.bytes == 0 || first.deltasSent == 0 || first.deltasApplied == 0 {
		t.Fatalf("no replication traffic counted: %+v", first)
	}
}

func TestSelfTimeAndWait(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "op", start: 0, end: 100, parent: -1, req: 1},
		{name: "rtt", start: 10, end: 30, parent: 0, req: 1},
		{name: "decode", start: 20, end: 50, parent: 0, req: 1},  // overlaps rtt
		{name: "encode", start: 90, end: 120, parent: 0, req: 1}, // runs past op
		{name: "inner", start: 12, end: 18, parent: 1, req: 1},
		{name: "op", start: 200, end: 260, parent: -1, req: 2},
		{name: "rtt", start: 205, end: 245, parent: 5, req: 2},
	}}
	st := summarize([]*tracer{tr})
	// op 1: children cover [10,50] and [90,100], 50 of 100; op 2: 40 of 60.
	if got := st["op"]; got.count != 2 || got.total != 160 || got.self != 50+20 {
		t.Errorf("op = %+v, want count 2, total 160, self 70", got)
	}
	// The first rtt loses the 6 ns of its child; the second has none.
	if got := st["rtt"]; got.total != 60 || got.self != 54 {
		t.Errorf("rtt = %+v, want total 60, self 54", got)
	}
	if got := st["encode"]; got.self != 30 {
		t.Errorf("encode self = %d, want 30 (a leaf's self time is its duration)", got.self)
	}
	// Two round trips of 60 ns in all, 25 ns of handler, 30 ns of codec:
	// (60 - 25 - 30) / 2 = 2.5 ns of wait per request.
	if got := waitMicros(st["rtt"], 25e-9, 30); math.Abs(got-0.0025) > 1e-12 {
		t.Errorf("wait = %v us, want 0.0025", got)
	}
	if got := waitMicros(layerStat{}, 1, 1); got != 0 {
		t.Errorf("wait with no round trips = %v, want 0", got)
	}
}

func TestFabricDeliversOnceInOrder(t *testing.T) {
	f := &fabric{}
	a, b := f.conn("a"), f.conn("b")
	msg := []byte("1")
	if _, err := a.WriteTo(msg, fabricAddr("b")); err != nil {
		t.Fatal(err)
	}
	msg[0] = 'x' // the fabric must have copied the datagram
	b.WriteTo([]byte("2"), fabricAddr("a"))
	a.WriteTo([]byte("3"), fabricAddr("b"))
	var got []string
	f.drain(func(d datagram) {
		got = append(got, fmt.Sprintf("%s>%s:%s", d.from, d.to, d.data))
		if string(d.data) == "1" {
			// A delivery that answers is drained in the same pass.
			b.WriteTo([]byte("4"), d.from)
		}
	})
	want := []string{"a>b:1", "b>a:2", "a>b:3", "b>a:4"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	if f.datagrams != 4 || f.bytes != 4 {
		t.Fatalf("counted %d datagrams, %d bytes; want 4, 4", f.datagrams, f.bytes)
	}
	f.drain(func(d datagram) { t.Fatalf("delivered %s twice", d.data) })
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json at the repository
// root in step with the workloads and metrics this program reports.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	check := func(kind string, got []metric, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, program reports %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i] != (metric{d.name, d.unit, d.better}) {
				t.Errorf("%s[%d] = %+v, program reports %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestQuantileNearestRank(t *testing.T) {
	ns := []int64{50, 10, 40, 20, 30}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 30}, {0.9, 50}, {0.2, 10}, {1, 50}} {
		if got := quantile(ns, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := medianSeconds([]time.Duration{3, 1, 2}); got != 2e-9 {
		t.Errorf("median = %v, want 2ns", got)
	}
}

// TestCrpdWorkloadsPassChecks runs both crpd workloads briefly, one of them
// traced, and requires clean output checks and measured metrics.
func TestCrpdWorkloadsPassChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon on loopback for a few seconds")
	}
	t.Chdir(t.TempDir()) // the traced run writes its spans under the working directory
	for _, tc := range []struct {
		name  string
		run   func(options) (*result, error)
		trace bool
		want  []string
	}{
		{"point_udp", runPointUDP, true, []string{"crpdaemon.decode_json_us", "crpdaemon.decode_bin_us",
			"crpdaemon.handler_us", "crpdaemon.wait_us", "crp.similarity_us", "crp.observe_agg_us"}},
		{"scan_ingest", runScanIngest, false, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run(options{seed: 5, seconds: 0.5, trace: tc.trace})
			if err != nil {
				t.Fatal(err)
			}
			if res.checkErr != nil || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("attempted %d, failed %d, check: %v", res.attempted, res.failed, res.checkErr)
			}
			want := tc.want
			if !tc.trace {
				for _, d := range endToEnd {
					want = append(want, d.name)
				}
			}
			for _, name := range want {
				if res.metrics[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.metrics[name])
				}
			}
		})
	}
}
