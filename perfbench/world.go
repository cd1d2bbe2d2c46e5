package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/crp"
	"repro/internal/crpdaemon"
)

// A world is the seeded redirection landscape every workload draws from:
// metros, each with three local CDN replicas, and nodes homed in a metro.
// A probe of a node returns one or two replicas, mostly its metro's, with a
// small chance of a far-away redirection — the structure that makes CRP's
// cosine similarity rank same-metro nodes first.
type world struct {
	metros   int
	replicas [][3]crp.ReplicaID // per metro
}

func newWorld(metros int) *world {
	w := &world{metros: metros, replicas: make([][3]crp.ReplicaID, metros)}
	for m := range w.replicas {
		for r := range w.replicas[m] {
			w.replicas[m][r] = crp.ReplicaID(fmt.Sprintf("m%03d-r%d", m, r))
		}
	}
	return w
}

// draw returns one replica a lookup from metro m is redirected to.
func (w *world) draw(rng *rand.Rand, m int) crp.ReplicaID {
	switch r := rng.Float64(); {
	case r < 0.65:
		return w.replicas[m][0]
	case r < 0.85:
		return w.replicas[m][1]
	case r < 0.95:
		return w.replicas[m][2]
	default:
		return w.replicas[rng.Intn(w.metros)][0]
	}
}

// probe returns the replica set of one lookup from metro m.
func (w *world) probe(rng *rand.Rand, m int) []crp.ReplicaID {
	out := []crp.ReplicaID{w.draw(rng, m)}
	if rng.Intn(2) == 0 {
		if r := w.draw(rng, m); r != out[0] {
			out = append(out, r)
		}
	}
	return out
}

// population is a set of nodes with their home metros.
type population struct {
	ids   []crp.NodeID
	metro []int
}

func (p *population) add(id crp.NodeID, metro int) {
	p.ids = append(p.ids, id)
	p.metro = append(p.metro, metro)
}

// namedNodes returns metros×perMetro symbolic nodes ("m007-n012"), which a
// prefix-aggregating service keeps on the per-client store.
func namedNodes(metros, perMetro int) population {
	var p population
	for m := 0; m < metros; m++ {
		for i := 0; i < perMetro; i++ {
			p.add(crp.NodeID(fmt.Sprintf("m%03d-n%03d", m, i)), m)
		}
	}
	return p
}

// ipv4Clients returns prefixes×perPrefix clients "10.x.y.h" in distinct
// /24s; every client of one /24 is homed in the same metro.
func ipv4Clients(prefixes, perPrefix, metros int) population {
	var p population
	for k := 0; k < prefixes; k++ {
		for h := 1; h <= perPrefix; h++ {
			p.add(crp.NodeID(fmt.Sprintf("10.%d.%d.%d", k>>8, k&0xff, h)), k%metros)
		}
	}
	return p
}

// probesPerNode is the seeded history of every node, the paper's
// recommended 10-probe window (crpd's default -window).
const probesPerNode = 10

// seedTime is the virtual start of every seeded history.
var seedTime = time.Unix(1_700_000_000, 0)

// seedProbe is one seeded Observe call; span names the ingest path it
// takes (crp.observe_store or crp.observe_agg) in the traced run.
type seedProbe struct {
	node     crp.NodeID
	at       time.Time
	replicas []crp.ReplicaID
	span     string
}

// history returns probesPerNode seeded probes for every node of p, one
// minute apart, node by node.
func (w *world) history(rng *rand.Rand, p population, span string) []seedProbe {
	out := make([]seedProbe, 0, len(p.ids)*probesPerNode)
	for i, id := range p.ids {
		for k := 0; k < probesPerNode; k++ {
			out = append(out, seedProbe{id, seedTime.Add(time.Duration(k) * time.Minute), w.probe(rng, p.metro[i]), span})
		}
	}
	return out
}

// wireOp is one pre-encoded crpd request.
type wireOp struct {
	req  crpdaemon.Request
	wire []byte
}

// cycle is a client's unit of work: its writes first, then the reads that
// depend on them. The cycle's wall time is the workload's sync latency.
type cycle []wireOp

func newOp(req crpdaemon.Request, bin bool) wireOp {
	wire, err := crpdaemon.EncodeRequest(&req, bin)
	if err != nil {
		// Every request is built here from bounded seeded values.
		panic(fmt.Sprintf("encode %s: %v", req.Op, err))
	}
	return wireOp{req: req, wire: wire}
}

func strs(ids []crp.ReplicaID) []string {
	out := make([]string, len(ids))
	for i, r := range ids {
		out[i] = string(r)
	}
	return out
}

// rngFor derives an independent stream from the run seed, so adding a
// stream never shifts another.
func rngFor(seed int64, stream string) *rand.Rand {
	h := uint64(1469598103934665603)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ int64(h)))
}
