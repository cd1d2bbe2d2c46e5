package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/crp"
	"repro/internal/crpdaemon"
	"repro/internal/obs"
)

// udpWorkload is a crpd workload: a seeded service behind crpdaemon.Serve
// on loopback UDP, driven by one closed-loop client goroutine per socket.
// The crpd protocol has no request ID, so a socket has at most one request
// in flight; the sockets never outnumber the host's CPUs.
type udpWorkload struct {
	name string
	// aggregate keys IPv4 clients by /24, as crpd -aggregate 24 does.
	aggregate bool
	// history is the seeded state: every Observe call set-up makes.
	history []seedProbe
	// bins is each socket's codec (true = binary).
	bins []bool
	// streams returns socket i's op stream; clients wrap around it.
	streams func(i int) []cycle
	// probes are the read-only requests of the output check.
	probes []crpdaemon.Request
	// scan marks scan_ingest, whose traced run times Service.TopK just
	// before each all-nodes query.
	scan bool
	// replay marks point_udp, whose traced run replays the read-only
	// queries in process.
	replay bool
}

var pointSizes = map[string]int{
	"metros": 40, "servers_per_metro": 30, "servers": 1200, "probes_per_node": probesPerNode,
	"client_prefixes_24": 256, "clients": 4096, "sockets": 2, "candidates": 8, "k": 1,
}

var scanSizes = map[string]int{
	"metros": 200, "nodes_per_metro": 100, "nodes": 20000, "probes_per_node": probesPerNode,
	"sockets": 2, "observes_per_query": 8, "k": 8,
}

// streamCycles is how many cycles each socket's op stream holds before it
// wraps around.
const streamCycles = 4096

func pointWorkload(seed int64) *udpWorkload {
	w := newWorld(pointSizes["metros"])
	servers := namedNodes(pointSizes["metros"], pointSizes["servers_per_metro"])
	clients := ipv4Clients(pointSizes["client_prefixes_24"], pointSizes["clients"]/pointSizes["client_prefixes_24"], w.metros)
	rng := rngFor(seed, "point_udp/history")
	history := append(w.history(rng, servers, "crp.observe_store"), w.history(rng, clients, "crp.observe_agg")...)
	perMetro := pointSizes["servers_per_metro"]
	server := func(rng *rand.Rand, m int) crp.NodeID {
		if rng.Intn(2) == 0 {
			m = rng.Intn(w.metros)
		}
		return servers.ids[m*perMetro+rng.Intn(perMetro)]
	}
	candidates := func(rng *rand.Rand, m int) []string {
		out := make([]string, pointSizes["candidates"])
		for i := range out {
			mm := m
			if i%2 == 1 {
				mm = rng.Intn(w.metros)
			}
			out[i] = string(servers.ids[mm*perMetro+rng.Intn(perMetro)])
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	wl := &udpWorkload{
		name:      "point_udp",
		aggregate: true,
		history:   history,
		bins:      []bool{false, true},
		replay:    true,
	}
	// A cycle is what a CRP client does: record one redirection, then ask
	// two similarity and two closest-server questions about itself — the
	// 20/40/40 observe/similarity/closest mix.
	wl.streams = func(i int) []cycle {
		rng := rngFor(seed, fmt.Sprintf("point_udp/socket/%d", i))
		bin := wl.bins[i]
		out := make([]cycle, streamCycles)
		for c := range out {
			ci := rng.Intn(len(clients.ids))
			id, m := string(clients.ids[ci]), clients.metro[ci]
			reads := []wireOp{
				newOp(crpdaemon.Request{Op: "similarity", A: id, B: string(server(rng, m))}, bin),
				newOp(crpdaemon.Request{Op: "similarity", A: id, B: string(server(rng, m))}, bin),
				newOp(crpdaemon.Request{Op: "closest", Client: id, Candidates: candidates(rng, m), K: pointSizes["k"]}, bin),
				newOp(crpdaemon.Request{Op: "closest", Client: id, Candidates: candidates(rng, m), K: pointSizes["k"]}, bin),
			}
			rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
			obs := newOp(crpdaemon.Request{Op: "observe", Node: id, Replicas: strs(w.probe(rng, m))}, bin)
			out[c] = append(cycle{obs}, reads...)
		}
		return out
	}
	prng := rngFor(seed, "point_udp/probes")
	for i := 0; i < 100; i++ {
		ci := prng.Intn(len(clients.ids))
		id, m := string(clients.ids[ci]), clients.metro[ci]
		wl.probes = append(wl.probes,
			crpdaemon.Request{Op: "similarity", A: id, B: string(server(prng, m))},
			crpdaemon.Request{Op: "closest", Client: id, Candidates: candidates(prng, m), K: pointSizes["k"]})
	}
	return wl
}

func scanWorkload(seed int64) *udpWorkload {
	w := newWorld(scanSizes["metros"])
	nodes := namedNodes(scanSizes["metros"], scanSizes["nodes_per_metro"])
	wl := &udpWorkload{
		name:    "scan_ingest",
		history: w.history(rngFor(seed, "scan_ingest/history"), nodes, "crp.observe_store"),
		bins:    []bool{true, true},
		scan:    true,
	}
	// The write:read ratio is fixed by the op sequence, not by a clock, so
	// the number of shards dirtied per query does not depend on how fast
	// the daemon runs.
	wl.streams = func(i int) []cycle {
		rng := rngFor(seed, fmt.Sprintf("scan_ingest/socket/%d", i))
		out := make([]cycle, streamCycles)
		for c := range out {
			cyc := make(cycle, 0, scanSizes["observes_per_query"]+1)
			for k := 0; k < scanSizes["observes_per_query"]; k++ {
				ni := rng.Intn(len(nodes.ids))
				cyc = append(cyc, newOp(crpdaemon.Request{Op: "observe", Node: string(nodes.ids[ni]), Replicas: strs(w.probe(rng, nodes.metro[ni]))}, true))
			}
			client := string(nodes.ids[rng.Intn(len(nodes.ids))])
			out[c] = append(cyc, newOp(crpdaemon.Request{Op: "closest", Client: client, K: scanSizes["k"]}, true))
		}
		return out
	}
	prng := rngFor(seed, "scan_ingest/probes")
	pick := func() string { return string(nodes.ids[prng.Intn(len(nodes.ids))]) }
	for i := 0; i < 20; i++ {
		cands := make([]string, 8)
		for j := range cands {
			cands[j] = pick()
		}
		wl.probes = append(wl.probes,
			crpdaemon.Request{Op: "closest", Client: pick(), K: scanSizes["k"]},
			crpdaemon.Request{Op: "closest", Client: pick(), Candidates: cands, K: scanSizes["k"]},
			crpdaemon.Request{Op: "similarity", A: pick(), B: pick()})
	}
	return wl
}

func runPointUDP(opts options) (*result, error) { return runUDP(pointWorkload(opts.seed), opts) }
func runScanIngest(opts options) (*result, error) {
	return runUDP(scanWorkload(opts.seed), opts)
}

// replyTimeout bounds one round trip; a request without a reply by then
// counts as failed.
const replyTimeout = 2 * time.Second

// setupUDP builds the seeded service and starts the daemon on loopback.
// Every seeded Observe is a span on tr.
func setupUDP(wl *udpWorkload, tr *tracer) (*crp.Service, *crpdaemon.Daemon, *obs.Registry, error) {
	svc := crp.NewService(crp.WithWindow(probesPerNode))
	if wl.aggregate {
		if err := svc.EnableAggregation(crp.AggregatorConfig{KeyOf: crp.PrefixKeyFunc(24)}); err != nil {
			return nil, nil, nil, err
		}
	}
	for _, p := range wl.history {
		s := tr.begin(p.span, -1, 0)
		err := svc.Observe(p.node, p.at, p.replicas...)
		tr.end(s)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("seed %s: %w", p.node, err)
		}
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	reg := obs.NewRegistry()
	d, err := crpdaemon.Serve(pc, svc, crpdaemon.Config{Registry: reg})
	if err != nil {
		pc.Close()
		return nil, nil, nil, err
	}
	return svc, d, reg, nil
}

// clientStats is one client's record of a window.
type clientStats struct {
	query, observe, cycle []int64 // latencies, ns
	ops, failed           int64
	reqBytes, replyBytes  int64
	firstErr              error
}

// codecSample is one request the client sent and the reply it decoded,
// kept for the traced run's allocation counts.
type codecSample struct {
	wire []byte
	bin  bool
	resp crpdaemon.Response
}

const maxSamples = 256

// udpClient is one closed-loop socket.
type udpClient struct {
	id     int
	conn   *net.UDPConn
	bin    bool
	cycles []cycle
	next   int
	buf    []byte
	svc    *crp.Service // scan_ingest's traced in-process TopK
	scan   bool
	reqs   uint64

	st      clientStats
	tr      *tracer
	samples []codecSample
}

func (c *udpClient) run(until time.Time) {
	for time.Now().Before(until) {
		cyc := c.cycles[c.next%len(c.cycles)]
		c.next++
		start := time.Now()
		ok := true
		for i := range cyc {
			ok = c.do(&cyc[i]) && ok
		}
		if ok {
			c.st.cycle = append(c.st.cycle, int64(time.Since(start)))
		}
	}
}

var (
	decodeSpan = map[bool]string{false: "crpdaemon.decode_json", true: "crpdaemon.decode_bin"}
	encodeSpan = map[bool]string{false: "crpdaemon.encode_json", true: "crpdaemon.encode_bin"}
)

// do sends one request and waits for its reply. It reports whether the
// reply arrived and was OK.
func (c *udpClient) do(op *wireOp) bool {
	c.reqs++
	req := uint64(c.id)<<40 | c.reqs
	root := c.tr.begin("op", -1, req)
	defer c.tr.end(root)
	if c.scan && c.tr != nil && op.req.Op == "closest" {
		client := crp.NodeID(op.req.Client)
		s := c.tr.begin("crp.topk_all", root, req)
		_, err1 := c.svc.TopK(client, nil, op.req.K)
		c.tr.end(s)
		s = c.tr.begin("crp.topk_cached", root, req)
		_, err2 := c.svc.TopK(client, nil, op.req.K)
		c.tr.end(s)
		if err := errors.Join(err1, err2); err != nil {
			return c.fail(fmt.Errorf("in-process TopK: %w", err))
		}
	}
	rtt := c.tr.begin("rtt", root, req)
	start := time.Now()
	if err := c.conn.SetReadDeadline(start.Add(replyTimeout)); err != nil {
		return c.fail(err)
	}
	if _, err := c.conn.Write(op.wire); err != nil {
		return c.fail(err)
	}
	n, err := c.conn.Read(c.buf)
	lat := int64(time.Since(start))
	c.tr.end(rtt)
	c.st.ops++
	if err != nil {
		return c.fail(fmt.Errorf("%s: %w", op.req.Op, err))
	}
	resp, _, err := crpdaemon.DecodeResponse(c.buf[:n])
	if err != nil {
		return c.fail(err)
	}
	if !resp.OK {
		return c.fail(fmt.Errorf("%s: %s", op.req.Op, resp.Error))
	}
	if op.req.Op == "observe" {
		c.st.observe = append(c.st.observe, lat)
	} else {
		c.st.query = append(c.st.query, lat)
	}
	c.st.reqBytes += int64(len(op.wire))
	c.st.replyBytes += int64(n)
	if c.tr != nil {
		s := c.tr.begin(decodeSpan[c.bin], root, req)
		_, _, derr := crpdaemon.DecodeRequest(op.wire)
		c.tr.end(s)
		s = c.tr.begin(encodeSpan[c.bin], root, req)
		crpdaemon.EncodeResponseWire(&resp, c.bin)
		c.tr.end(s)
		if derr != nil {
			return c.fail(derr)
		}
		if len(c.samples) < maxSamples {
			c.samples = append(c.samples, codecSample{op.wire, c.bin, resp})
		}
	}
	return true
}

func (c *udpClient) fail(err error) bool {
	c.st.failed++
	if c.st.firstErr == nil {
		c.st.firstErr = err
	}
	return false
}

// window runs every client until d has passed and returns the wall time
// until the last one finished its cycle.
func window(clients []*udpClient, d time.Duration) time.Duration {
	start := time.Now()
	until := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(until)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// windowStats merges the clients' records of one window.
type windowStats struct {
	clientStats
	elapsed time.Duration
	// handlerSeconds and handled are the daemon's own crpd.latency.<op>
	// histograms, differenced over the window.
	handlerSeconds float64
	handled        uint64
	counters       map[string]uint64
	rebuilds       uint64
	allocBytes     uint64
	gcCycles       uint32
}

// measure runs one window with every client's stats reset and returns
// their merged record.
func measure(clients []*udpClient, reg *obs.Registry, d time.Duration, tracers []*tracer) windowStats {
	for i, c := range clients {
		c.st = clientStats{}
		c.tr = nil
		if tracers != nil {
			c.tr = tracers[i]
		}
	}
	before := reg.Snapshot()
	rebuilds0 := obs.Default().Snapshot().Counters[shardRebuilds]
	alloc0, gc0 := memCounters()
	elapsed := window(clients, d)
	alloc1, gc1 := memCounters()
	rebuilds1 := obs.Default().Snapshot().Counters[shardRebuilds]
	after := reg.Snapshot()

	ws := windowStats{elapsed: elapsed, rebuilds: rebuilds1 - rebuilds0,
		allocBytes: alloc1 - alloc0, gcCycles: gc1 - gc0, counters: map[string]uint64{}}
	for name, h := range after.Histograms {
		if strings.HasPrefix(name, "crpd.latency.") {
			ws.handlerSeconds += h.Sum - before.Histograms[name].Sum
			ws.handled += h.Count - before.Histograms[name].Count
		}
	}
	for _, name := range []string{"crpd.rejected", "crpd.timeouts", "crpd.bad_requests"} {
		ws.counters[name] = after.Counters[name] - before.Counters[name]
	}
	for _, c := range clients {
		st := &c.st
		ws.query = append(ws.query, st.query...)
		ws.observe = append(ws.observe, st.observe...)
		ws.cycle = append(ws.cycle, st.cycle...)
		ws.ops += st.ops
		ws.failed += st.failed
		ws.reqBytes += st.reqBytes
		ws.replyBytes += st.replyBytes
		if ws.firstErr == nil {
			ws.firstErr = st.firstErr
		}
	}
	return ws
}

// shardRebuilds counts per-shard snapshot recompiles. It lives on the
// process-wide registry, which is sound here because a run serves one
// Service at a time.
const shardRebuilds = "crp.service.snapshot.shard_rebuilds"

func (ws windowStats) opsPerSecond() float64 {
	return float64(ws.ops-ws.failed) / ws.elapsed.Seconds()
}

// udpFigures are one window's end-to-end figures.
func udpFigures(ws windowStats) map[string]float64 {
	f := map[string]float64{"ops_per_s": ws.opsPerSecond()}
	addLatency(f, "query", "us", ws.query)
	addLatency(f, "observe", "us", ws.observe)
	addLatency(f, "sync", "ms", ws.cycle)
	return f
}

func runUDP(wl *udpWorkload, opts options) (*result, error) {
	epoch := time.Now()
	setupTr := newTracer(epoch)
	var (
		svc    *crp.Service
		d      *crpdaemon.Daemon
		reg    *obs.Registry
		setups []time.Duration
	)
	for r := 0; r < setupReps; r++ {
		if d != nil {
			d.Close()
			svc, d, reg = nil, nil, nil
		}
		var tr *tracer
		if opts.trace && r == setupReps-1 {
			tr = setupTr
		}
		runtime.GC() // every set-up starts from the same heap
		start := time.Now()
		var err error
		svc, d, reg, err = setupUDP(wl, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
	}
	defer d.Close()
	wl.history = nil // the benchmark's copy of the seeded state
	heap := heapMB()

	raddr := d.Addr().(*net.UDPAddr)
	clients := make([]*udpClient, len(wl.bins))
	for i, bin := range wl.bins {
		conn, err := net.DialUDP("udp", nil, raddr)
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		clients[i] = &udpClient{id: i, conn: conn, bin: bin, cycles: wl.streams(i),
			buf: make([]byte, crpdaemon.MaxReplySize+1), svc: svc, scan: wl.scan}
	}

	res := &result{metrics: map[string]float64{}, info: map[string]any{}}
	tally := func(ws windowStats) {
		res.attempted += ws.ops
		res.failed += ws.failed
		if ws.firstErr != nil && res.info["first_error"] == nil {
			res.info["first_error"] = ws.firstErr.Error()
		}
	}
	// Warm-up: first compiles of the snapshot and the codec paths, and the
	// sockets' buffers, are paid outside the measured window.
	tally(measure(clients, reg, warmup(opts), nil))

	total := time.Duration(opts.seconds * float64(time.Second))
	var traced windowStats
	var tracers []*tracer
	plainWindow := total
	if opts.trace {
		for range clients {
			tracers = append(tracers, newTracer(epoch))
		}
		traced = measure(clients, reg, total/2, tracers)
		tally(traced)
		plainWindow = total / 2
	}
	plain := measure(clients, reg, plainWindow, nil)
	tally(plain)

	attempted, failed, err := checkUDP(wl, svc, clients)
	res.attempted += attempted
	res.failed += failed
	res.checkErr = err

	res.setFigures(udpFigures(plain))
	res.metrics["setup_s"] = medianSeconds(setups)
	res.metrics["heap_mb"] = heap

	if opts.trace {
		all := append([]*tracer{setupTr}, tracers...)
		if wl.replay {
			replayTr := newTracer(epoch)
			if err := replayReads(svc, clients, replayTr); err != nil {
				return nil, err
			}
			all = append(all, replayTr)
		}
		udpLayers(res, summarize(all), traced, clients)
		path := traceFile(wl.name)
		if err := writeTrace(path, all); err != nil {
			return nil, err
		}
		res.info["trace_file"] = path
	}
	return res, nil
}

// warmup is the unmeasured lead-in before the first window.
func warmup(opts options) time.Duration {
	return min(time.Second, time.Duration(opts.seconds*float64(time.Second))/4)
}

// replayReads replays each socket's read-only queries in process, timing
// Service.Similarity and Service.TopK over explicit candidates.
func replayReads(svc *crp.Service, clients []*udpClient, tr *tracer) error {
	for _, c := range clients {
		for _, cyc := range c.cycles[:min(len(c.cycles), 1024)] {
			for _, op := range cyc {
				var err error
				switch op.req.Op {
				case "similarity":
					s := tr.begin("crp.similarity", -1, 0)
					_, err = svc.Similarity(crp.NodeID(op.req.A), crp.NodeID(op.req.B))
					tr.end(s)
				case "closest":
					cands := nodeIDs(op.req.Candidates)
					s := tr.begin("crp.topk_cands", -1, 0)
					_, err = svc.TopK(crp.NodeID(op.req.Client), cands, op.req.K)
					tr.end(s)
				}
				if err != nil {
					return fmt.Errorf("replay %s: %w", op.req.Op, err)
				}
			}
		}
	}
	return nil
}

// udpLayers fills the per-layer metrics of a crpd workload.
func udpLayers(res *result, st map[string]layerStat, traced windowStats, clients []*udpClient) {
	m := res.metrics
	codecNanos := int64(0)
	for _, bin := range []bool{false, true} {
		codecNanos += st[decodeSpan[bin]].total + st[encodeSpan[bin]].total
	}
	m["crpdaemon.decode_json_us"] = st[decodeSpan[false]].meanUS()
	m["crpdaemon.decode_bin_us"] = st[decodeSpan[true]].meanUS()
	m["crpdaemon.encode_json_us"] = st[encodeSpan[false]].meanUS()
	m["crpdaemon.encode_bin_us"] = st[encodeSpan[true]].meanUS()
	var samples []codecSample
	for _, c := range clients {
		samples = append(samples, c.samples...)
	}
	m["crpdaemon.decode_allocs"], m["crpdaemon.encode_allocs"] = codecAllocs(samples)
	good := traced.ops - traced.failed
	m["crpdaemon.request_bytes"] = ratioF(float64(traced.reqBytes), good)
	m["crpdaemon.reply_bytes"] = ratioF(float64(traced.replyBytes), good)
	m["crpdaemon.handler_us"] = ratioF(traced.handlerSeconds*1e6, int64(traced.handled))
	m["crpdaemon.wait_us"] = waitMicros(st["rtt"], traced.handlerSeconds, codecNanos)
	m["crpdaemon.rejected"] = float64(traced.counters["crpd.rejected"])
	m["crpdaemon.timeouts"] = float64(traced.counters["crpd.timeouts"])
	m["crpdaemon.bad_requests"] = float64(traced.counters["crpd.bad_requests"])

	all, cached := st["crp.topk_all"], st["crp.topk_cached"]
	m["crp.topk_all_us"] = all.meanUS()
	m["crp.topk_cached_us"] = cached.meanUS()
	if all.count > 0 {
		m["crp.snapshot_us"] = all.meanUS() - cached.meanUS()
	}
	m["crp.shard_rebuilds_per_query"] = ratioF(float64(traced.rebuilds), int64(len(traced.query)))
	m["crp.similarity_us"] = st["crp.similarity"].meanUS()
	m["crp.topk_cands_us"] = st["crp.topk_cands"].meanUS()
	m["crp.observe_agg_us"] = st["crp.observe_agg"].meanUS()
	m["crp.observe_store_us"] = st["crp.observe_store"].meanUS()
	m["go.alloc_bytes_per_op"] = ratioF(float64(traced.allocBytes), traced.ops)
	m["go.gc_cycles"] = float64(traced.gcCycles)
	m["bench.op_self_us"] = st["op"].selfUS()
	m["trace.overhead_pct"] = overheadPct(traced.opsPerSecond(), m["ops_per_s"])
	res.info["traced_ops_per_s"] = traced.opsPerSecond()
	res.info["untraced_ops_per_s"] = m["ops_per_s"]
	res.info["traced_query_p50_us"] = quantile(traced.query, 0.5) / 1e3
}

// codecAllocs counts the allocations of one DecodeRequest and one
// EncodeResponseWire, averaged over the sampled messages.
func codecAllocs(samples []codecSample) (decode, encode float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	count := func(f func(codecSample)) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, s := range samples {
			f(s)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(len(samples))
	}
	decode = count(func(s codecSample) { crpdaemon.DecodeRequest(s.wire) })
	encode = count(func(s codecSample) { crpdaemon.EncodeResponseWire(&s.resp, s.bin) })
	return decode, encode
}

// checkUDP sends every probe on every socket, with load stopped, and
// requires each reply to equal the in-process Service answer.
func checkUDP(wl *udpWorkload, svc *crp.Service, clients []*udpClient) (attempted, failed int64, first error) {
	for _, c := range clients {
		for _, req := range wl.probes {
			attempted++
			err := probeOnce(c, svc, req)
			if err != nil {
				failed++
				if first == nil {
					first = fmt.Errorf("output check on socket %d: %w", c.id, err)
				}
			}
		}
	}
	return attempted, failed, first
}

func probeOnce(c *udpClient, svc *crp.Service, req crpdaemon.Request) error {
	wire, err := crpdaemon.EncodeRequest(&req, c.bin)
	if err != nil {
		return err
	}
	if err := c.conn.SetReadDeadline(time.Now().Add(replyTimeout)); err != nil {
		return err
	}
	if _, err := c.conn.Write(wire); err != nil {
		return err
	}
	n, err := c.conn.Read(c.buf)
	if err != nil {
		return err
	}
	got, _, err := crpdaemon.DecodeResponse(c.buf[:n])
	if err != nil {
		return err
	}
	want := expected(svc, req)
	if !sameAnswer(got, want) {
		return fmt.Errorf("%s a=%s b=%s client=%s candidates=%v: daemon answered %s, service %s",
			req.Op, req.A, req.B, req.Client, req.Candidates, answer(got), answer(want))
	}
	return nil
}

func answer(r crpdaemon.Response) string {
	if r.Similarity != nil {
		return fmt.Sprintf("ok=%v error=%q similarity=%v", r.OK, r.Error, *r.Similarity)
	}
	return fmt.Sprintf("ok=%v error=%q ranked=%v", r.OK, r.Error, r.Ranked)
}

// expected is the in-process Service answer to a read-only request.
func expected(svc *crp.Service, req crpdaemon.Request) crpdaemon.Response {
	switch req.Op {
	case "similarity":
		sim, err := svc.Similarity(crp.NodeID(req.A), crp.NodeID(req.B))
		if err != nil {
			return crpdaemon.Response{Error: err.Error()}
		}
		return crpdaemon.Response{OK: true, Similarity: &sim}
	case "closest":
		ranked, err := svc.TopK(crp.NodeID(req.Client), nodeIDs(req.Candidates), max(req.K, 1))
		if err != nil {
			return crpdaemon.Response{Error: err.Error()}
		}
		out := crpdaemon.Response{OK: true, Ranked: make([]crpdaemon.RankedNode, len(ranked))}
		for i, s := range ranked {
			out.Ranked[i] = crpdaemon.RankedNode{Node: string(s.Node), Similarity: s.Similarity}
		}
		return out
	}
	return crpdaemon.Response{Error: "no in-process answer for op " + req.Op}
}

// nodeIDs converts a wire candidate list, keeping nil (rank against every
// node) apart from empty (no candidates), as the daemon does.
func nodeIDs(ids []string) []crp.NodeID {
	if ids == nil {
		return nil
	}
	out := make([]crp.NodeID, len(ids))
	for i, id := range ids {
		out[i] = crp.NodeID(id)
	}
	return out
}

func sameAnswer(got, want crpdaemon.Response) bool {
	if got.OK != want.OK || got.Error != want.Error || (got.Similarity == nil) != (want.Similarity == nil) {
		return false
	}
	if got.Similarity != nil && *got.Similarity != *want.Similarity {
		return false
	}
	if len(got.Ranked) != len(want.Ranked) {
		return false
	}
	for i := range got.Ranked {
		if got.Ranked[i] != want.Ranked[i] {
			return false
		}
	}
	return true
}
