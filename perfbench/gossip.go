package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"time"

	"repro/crp"
	"repro/internal/obs"
	"repro/internal/peering"
)

// gossipSpec sizes gossip_sync; tests run it smaller.
type gossipSpec struct {
	metros, perMetro int
	writes, reads    int // per round
	// countRounds is the prefix of the traced run's rounds over which the
	// datagram, byte and delta counts are taken, so they repeat exactly
	// for a seed however many rounds the window holds.
	countRounds int
}

var gossipFull = gossipSpec{metros: 200, perMetro: 100, writes: 500, reads: 8, countRounds: 10}

var gossipSizes = map[string]int{
	"daemons": gossipDaemons, "metros": gossipFull.metros, "nodes_per_metro": gossipFull.perMetro,
	"nodes": gossipFull.metros * gossipFull.perMetro, "probes_per_node": probesPerNode,
	"writes_per_round": gossipFull.writes, "reads_per_round": gossipFull.reads,
	"count_rounds": gossipFull.countRounds,
}

const (
	gossipDaemons = 3
	// streamRounds is how many rounds the op stream holds before it wraps.
	streamRounds = 128
	// warmRounds run before any measurement; a fixed count, not a time, so
	// the measured rounds start from the same state on every run.
	warmRounds = 2
	// maxTicks bounds one round's convergence; a round that needs more
	// fails the run.
	maxTicks = 32
)

// gossipWrite is one Observe on one daemon.
type gossipWrite struct {
	daemon   int
	node     crp.NodeID
	replicas []crp.ReplicaID
}

// gossipRound is one round's op stream: writes spread over the daemons,
// then reads of pairs of written nodes, asked of every replica.
type gossipRound struct {
	writes []gossipWrite
	reads  [][2]crp.NodeID
}

type gossipWorkload struct {
	spec    gossipSpec
	world   *world
	nodes   population
	history []seedProbe
	rounds  []gossipRound
}

func newGossipWorkload(seed int64, spec gossipSpec) *gossipWorkload {
	w := newWorld(spec.metros)
	nodes := namedNodes(spec.metros, spec.perMetro)
	return &gossipWorkload{
		spec:    spec,
		world:   w,
		nodes:   nodes,
		history: w.history(rngFor(seed, "gossip_sync/history"), nodes, "crp.observe_store"),
	}
}

// genRounds makes the op stream. It runs after set-up, so the stream is
// not counted in heap_mb.
func (wl *gossipWorkload) genRounds(seed int64) {
	rng := rngFor(seed, "gossip_sync/rounds")
	wl.rounds = make([]gossipRound, streamRounds)
	for r := range wl.rounds {
		rd := &wl.rounds[r]
		for i := 0; i < wl.spec.writes; i++ {
			ni := rng.Intn(len(wl.nodes.ids))
			rd.writes = append(rd.writes, gossipWrite{rng.Intn(gossipDaemons), wl.nodes.ids[ni], wl.world.probe(rng, wl.nodes.metro[ni])})
		}
		for i := 0; i < wl.spec.reads; i++ {
			a, b := rd.writes[rng.Intn(len(rd.writes))].node, rd.writes[rng.Intn(len(rd.writes))].node
			rd.reads = append(rd.reads, [2]crp.NodeID{a, b})
		}
	}
}

// fabric is an in-memory datagram network for the gossip plane: WriteTo
// appends to one FIFO queue, and drain hands each datagram, once and in
// write order, to its destination. It counts what crosses it. gossip_sync
// runs on one goroutine, so the fabric takes no lock.
type fabric struct {
	queue     []datagram
	head      int
	datagrams int64
	bytes     int64
}

type datagram struct {
	from, to fabricAddr
	data     []byte
}

type fabricAddr string

func (a fabricAddr) Network() string { return "fabric" }
func (a fabricAddr) String() string  { return string(a) }

func (f *fabric) conn(addr string) net.PacketConn { return &fabricConn{f, fabricAddr(addr)} }

func (f *fabric) resolve(addr string) (net.Addr, error) {
	if addr == "" {
		return nil, errors.New("fabric: empty address")
	}
	return fabricAddr(addr), nil
}

// drain delivers queued datagrams, including any the deliveries write,
// until the queue is empty.
func (f *fabric) drain(deliver func(datagram)) {
	for f.head < len(f.queue) {
		d := f.queue[f.head]
		f.queue[f.head] = datagram{}
		f.head++
		deliver(d)
	}
	f.queue, f.head = f.queue[:0], 0
}

// fabricConn is one daemon's endpoint. Only WriteTo carries traffic:
// inbound datagrams arrive through Peering.HandleDatagram.
type fabricConn struct {
	f    *fabric
	addr fabricAddr
}

func (c *fabricConn) WriteTo(b []byte, to net.Addr) (int, error) {
	c.f.queue = append(c.f.queue, datagram{c.addr, fabricAddr(to.String()), append([]byte(nil), b...)})
	c.f.datagrams++
	c.f.bytes += int64(len(b))
	return len(b), nil
}

func (c *fabricConn) ReadFrom([]byte) (int, net.Addr, error) {
	return 0, nil, errors.New("fabric: datagrams are delivered by drain")
}
func (c *fabricConn) Close() error                     { return nil }
func (c *fabricConn) LocalAddr() net.Addr              { return c.addr }
func (c *fabricConn) SetDeadline(time.Time) error      { return nil }
func (c *fabricConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fabricConn) SetWriteDeadline(time.Time) error { return nil }

// mesh is three crp.Service + peering.Peering pairs on one fabric, driven
// on a virtual clock.
type mesh struct {
	svcs   []*crp.Service
	peers  map[fabricAddr]*peering.Peering
	order  []*peering.Peering
	fab    *fabric
	clock  time.Time
	rounds int
}

func (m *mesh) now() time.Time { return m.clock }

// setupMesh seeds one service, copies its state into the other two through
// ExportDelta/ApplyDelta, wires the gossip engines and runs the codec
// handshake. Every seeded Observe is a span on tr.
func setupMesh(wl *gossipWorkload, seed int64, tr *tracer) (*mesh, error) {
	m := &mesh{peers: map[fabricAddr]*peering.Peering{}, fab: &fabric{},
		clock: seedTime.Add(time.Hour)}
	for i := 0; i < gossipDaemons; i++ {
		m.svcs = append(m.svcs, crp.NewService(crp.WithWindow(probesPerNode)))
	}
	for _, p := range wl.history {
		s := tr.begin(p.span, -1, 0)
		err := m.svcs[0].Observe(p.node, p.at, p.replicas...)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("seed %s: %w", p.node, err)
		}
	}
	for _, id := range wl.nodes.ids {
		d, ok := m.svcs[0].ExportDelta(id)
		if !ok {
			return nil, fmt.Errorf("export %s: unknown node", id)
		}
		for _, svc := range m.svcs[1:] {
			if _, err := svc.ApplyDelta(d); err != nil {
				return nil, fmt.Errorf("apply %s: %w", id, err)
			}
		}
	}
	var addrs []string
	for i, svc := range m.svcs {
		addr := fmt.Sprintf("d%d", i)
		addrs = append(addrs, addr)
		p, err := peering.New(peering.Config{
			Self: addr, Addr: addr, Service: svc, Seed: uint64(seed) + uint64(i),
			Now: m.now, Resolve: m.fab.resolve, Registry: obs.NewRegistry(),
		})
		if err != nil {
			return nil, err
		}
		p.Attach(m.fab.conn(addr))
		m.peers[fabricAddr(addr)] = p
		m.order = append(m.order, p)
	}
	for _, p := range m.order {
		for _, addr := range addrs {
			if err := p.AddPeer(addr, addr); err != nil {
				return nil, err
			}
		}
	}
	// Every engine starts on the bootstrap codec and upgrades a peer to
	// binary once it hears the peer advertise it; two digest rounds reach
	// every peer.
	for i := 0; i < 2; i++ {
		if _, err := m.sync(nil, -1, 0); err != nil {
			return nil, fmt.Errorf("handshake: %w", err)
		}
	}
	return m, nil
}

// sync ticks every engine back to back and drains the fabric until the
// digests agree, returning the ticks it took.
func (m *mesh) sync(tr *tracer, root int32, req uint64) (int, error) {
	for ticks := 1; ticks <= maxTicks; ticks++ {
		m.clock = m.clock.Add(time.Second)
		for _, p := range m.order {
			s := tr.begin("peering.tick", root, req)
			p.Tick(m.clock)
			tr.end(s)
		}
		m.fab.drain(func(d datagram) {
			s := tr.begin("peering.handle", root, req)
			m.peers[d.to].HandleDatagram(d.data, d.from)
			tr.end(s)
		})
		if m.agree(tr, root, req) {
			return ticks, nil
		}
	}
	return maxTicks, fmt.Errorf("digests still differ after %d ticks", maxTicks)
}

func (m *mesh) agree(tr *tracer, root int32, req uint64) bool {
	var first []uint64
	same := true
	for i, svc := range m.svcs {
		s := tr.begin("crp.digests", root, req)
		d := svc.ShardDigests()
		tr.end(s)
		if i == 0 {
			first = d
		} else if !slices.Equal(first, d) {
			same = false
		}
	}
	return same
}

// gossipStats is the record of a run of rounds.
type gossipStats struct {
	query, observe, cycle []int64 // ns
	writes, ops, failed   int64
	ticks                 int64
	rounds                int64
	elapsed               time.Duration
	allocBytes            uint64
	gcCycles              uint32
	firstErr              error
}

func (st *gossipStats) fail(err error) {
	st.failed++
	if st.firstErr == nil {
		st.firstErr = err
	}
}

// round runs the mesh's next round: the writes, then sync, then every read
// on every replica, which must all answer alike.
func (m *mesh) round(wl *gossipWorkload, st *gossipStats, tr *tracer) {
	rd := &wl.rounds[m.rounds%len(wl.rounds)]
	m.rounds++
	req := uint64(m.rounds)
	start := time.Now()
	root := tr.begin("round", -1, req)
	for _, w := range rd.writes {
		s := tr.begin("crp.observe_live", root, req)
		t0 := time.Now()
		err := m.svcs[w.daemon].Observe(w.node, m.clock, w.replicas...)
		st.observe = append(st.observe, int64(time.Since(t0)))
		tr.end(s)
		st.ops++
		st.writes++
		if err != nil {
			st.fail(err)
		}
	}
	ticks, err := m.sync(tr, root, req)
	st.ticks += int64(ticks)
	tr.end(root)
	if err != nil {
		st.fail(fmt.Errorf("round %d: %w", m.rounds, err))
		return
	}
	st.cycle = append(st.cycle, int64(time.Since(start)))
	st.rounds++
	for _, pair := range rd.reads {
		var first float64
		for i, svc := range m.svcs {
			t0 := time.Now()
			sim, err := svc.Similarity(pair[0], pair[1])
			st.query = append(st.query, int64(time.Since(t0)))
			st.ops++
			switch {
			case err != nil:
				st.fail(err)
			case i == 0:
				first = sim
			case sim != first:
				st.fail(fmt.Errorf("round %d: replica %d answers %v for %s~%s, replica 0 %v", m.rounds, i, sim, pair[0], pair[1], first))
			}
		}
	}
}

// figures are the end-to-end figures of a run of rounds; ops are the
// writes every replica holds.
func (st gossipStats) figures() map[string]float64 {
	f := map[string]float64{"ops_per_s": float64(st.writes) / st.elapsed.Seconds()}
	addLatency(f, "query", "us", st.query)
	addLatency(f, "observe", "us", st.observe)
	addLatency(f, "sync", "ms", st.cycle)
	return f
}

// gossipCounts is the replication traffic of a run of rounds.
type gossipCounts struct {
	datagrams, bytes                       int64
	deltasSent, deltasApplied, deltasStale uint64
}

func (m *mesh) counts() gossipCounts {
	c := gossipCounts{datagrams: m.fab.datagrams, bytes: m.fab.bytes}
	for _, p := range m.order {
		s := p.Stats()
		c.deltasSent += s.DeltasSent
		c.deltasApplied += s.DeltasApplied
		c.deltasStale += s.DeltasStale
	}
	return c
}

func (c gossipCounts) minus(o gossipCounts) gossipCounts {
	return gossipCounts{c.datagrams - o.datagrams, c.bytes - o.bytes,
		c.deltasSent - o.deltasSent, c.deltasApplied - o.deltasApplied, c.deltasStale - o.deltasStale}
}

// runRounds runs whole rounds until d has passed and at least minRounds
// have run; counted is the traffic of the first minRounds of them.
func (m *mesh) runRounds(wl *gossipWorkload, d time.Duration, minRounds int, tr *tracer) (st gossipStats, counted gossipCounts) {
	alloc0, gc0 := memCounters()
	start := time.Now()
	base := m.counts()
	for n := 0; n < minRounds || time.Since(start) < d; n++ {
		m.round(wl, &st, tr)
		if n+1 == minRounds {
			counted = m.counts().minus(base)
		}
	}
	st.elapsed = time.Since(start)
	alloc1, gc1 := memCounters()
	st.allocBytes, st.gcCycles = alloc1-alloc0, gc1-gc0
	return st, counted
}

// snapshotsEqual requires byte-equal WriteSnapshot output from every
// replica.
func (m *mesh) snapshotsEqual() error {
	var first []byte
	for i, svc := range m.svcs {
		var buf bytes.Buffer
		if err := svc.WriteSnapshot(&buf); err != nil {
			return err
		}
		if i == 0 {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			return fmt.Errorf("replica %d snapshot differs from replica 0", i)
		}
	}
	return nil
}

func runGossipSync(opts options) (*result, error) {
	return runGossip(newGossipWorkload(opts.seed, gossipFull), opts)
}

func runGossip(wl *gossipWorkload, opts options) (*result, error) {
	epoch := time.Now()
	setupTr := newTracer(epoch)
	var (
		m      *mesh
		setups []time.Duration
	)
	for r := 0; r < setupReps; r++ {
		var tr *tracer
		if opts.trace && r == setupReps-1 {
			tr = setupTr
		}
		m = nil
		runtime.GC() // every set-up starts from the same heap
		start := time.Now()
		var err error
		if m, err = setupMesh(wl, opts.seed, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
	}
	wl.history = nil // the benchmark's copy of the seeded state
	heap := heapMB()
	wl.genRounds(opts.seed)

	res := &result{metrics: map[string]float64{}, info: map[string]any{}}
	tally := func(st gossipStats) {
		res.attempted += st.ops
		res.failed += st.failed
		if st.firstErr != nil && res.checkErr == nil {
			res.checkErr = st.firstErr
		}
	}
	warm, _ := m.runRounds(wl, 0, warmRounds, nil)
	tally(warm)

	total := time.Duration(opts.seconds * float64(time.Second))
	var traced gossipStats
	var counted gossipCounts
	roundTr := newTracer(epoch)
	plainWindow := total
	if opts.trace {
		traced, counted = m.runRounds(wl, total/2, wl.spec.countRounds, roundTr)
		tally(traced)
		plainWindow = total / 2
	}
	plain, _ := m.runRounds(wl, plainWindow, 1, nil)
	tally(plain)
	res.attempted++
	if err := m.snapshotsEqual(); err != nil {
		res.failed++
		if res.checkErr == nil {
			res.checkErr = err
		}
	}

	res.setFigures(plain.figures())
	mt := res.metrics
	mt["setup_s"] = medianSeconds(setups)
	mt["heap_mb"] = heap

	if opts.trace {
		st := summarize([]*tracer{setupTr, roundTr})
		writes := int64(wl.spec.countRounds * wl.spec.writes)
		mt["crp.observe_store_us"] = st["crp.observe_store"].meanUS()
		mt["crp.digests_us"] = st["crp.digests"].meanUS()
		mt["peering.tick_us"] = st["peering.tick"].meanUS()
		mt["peering.handle_us"] = st["peering.handle"].meanUS()
		mt["peering.datagrams_per_write"] = ratioF(float64(counted.datagrams), writes)
		mt["peering.bytes_per_write"] = ratioF(float64(counted.bytes), writes)
		mt["peering.deltas_sent"] = float64(counted.deltasSent)
		mt["peering.deltas_applied"] = float64(counted.deltasApplied)
		mt["peering.deltas_stale"] = float64(counted.deltasStale)
		mt["peering.apply_ratio"] = ratioF(float64(counted.deltasApplied), int64(counted.deltasSent))
		mt["peering.ticks_per_sync"] = ratioF(float64(traced.ticks), traced.rounds)
		mt["go.alloc_bytes_per_op"] = ratioF(float64(traced.allocBytes), traced.ops)
		mt["go.gc_cycles"] = float64(traced.gcCycles)
		mt["bench.op_self_us"] = st["round"].selfUS()
		tracedRate := float64(traced.writes) / traced.elapsed.Seconds()
		mt["trace.overhead_pct"] = overheadPct(tracedRate, mt["ops_per_s"])
		res.info["traced_ops_per_s"] = tracedRate
		res.info["untraced_ops_per_s"] = mt["ops_per_s"]
		res.info["counted_rounds"] = wl.spec.countRounds
		res.info["datagrams"] = counted.datagrams
		res.info["bytes"] = counted.bytes
		path := traceFile("gossip_sync")
		if err := writeTrace(path, []*tracer{setupTr, roundTr}); err != nil {
			return nil, err
		}
		res.info["trace_file"] = path
	}
	return res, nil
}
