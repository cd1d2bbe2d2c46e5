package peering

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/crp"
	"repro/internal/binwire"
	"repro/internal/obs"
)

// sampleMsgs covers every message type with every field its type uses,
// including the encoding edge cases (zero time, tombstones, empty
// collections).
func sampleMsgs() []Msg {
	thresholdAt := time.Date(2026, 8, 8, 10, 20, 30, 123456789, time.UTC)
	return []Msg{
		{Type: MsgJoin, From: "d1", Addr: "127.0.0.1:9000"},
		{Type: MsgJoinAck, From: "d2", Addr: "127.0.0.1:9001"},
		{Type: MsgDigest, From: "d1", ShardCount: 4, Digests: []uint64{0, 1, 1<<64 - 1, 42}},
		{Type: MsgDiff, From: "d2", Shards: []int{0, 3, MaxShardCount - 1}, Metas: []crp.NodeMeta{
			{Node: "n1", Origin: "d1", Version: 2},
			{Node: "n2", Origin: "d2", Version: 9, Deleted: true},
		}},
		{Type: MsgDelta, From: "d1", TTL: 3, Deltas: []crp.NodeDelta{
			{NodeMeta: crp.NodeMeta{Node: "n1", Origin: "d1", Version: 1}, Probes: []crp.Probe{
				{At: thresholdAt, Replicas: []crp.ReplicaID{"r1", "r2"}},
				{At: thresholdAt.Add(time.Second), Replicas: nil},
			}},
			{NodeMeta: crp.NodeMeta{Node: "n2", Origin: "d2", Version: 5, Deleted: true}, DeletedAt: thresholdAt},
		}},
		{Type: MsgPull, From: "d2", Nodes: []string{"n1", "n2"}},
		{Type: MsgDelta, From: "d1", TTL: 1, Deltas: []crp.NodeDelta{
			{NodeMeta: crp.NodeMeta{Node: "n3", Version: 1}},
		}},
		// Namespaced replica IDs ride inside the ID strings ("ns!replica"),
		// so a multi-CDN deployment needs no frame change — but the corpus
		// must cover them, including one at the exact MaxIDBytes boundary.
		{Type: MsgDelta, From: "d1", TTL: 2, Deltas: []crp.NodeDelta{
			{NodeMeta: crp.NodeMeta{Node: "n4", Origin: "d1", Version: 3}, Probes: []crp.Probe{
				{At: thresholdAt, Replicas: []crp.ReplicaID{
					"cdnA!r1", "cdnB!r1",
					crp.ReplicaID("cdnA!" + strings.Repeat("r", MaxIDBytes-len("cdnA!"))),
				}},
			}},
		}},
	}
}

// asJSON canonicalizes a decoded Msg for comparison: JSON marshaling
// sidesteps time.Time's internal-representation differences (wall vs
// monotonic, location pointers) while still comparing every wire-visible
// field.
func asJSON(t *testing.T, m Msg) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// TestBinaryPeerMsgRoundTrip pins decode(encode(x)) == x on every message
// type, and that encoding is canonical.
func TestBinaryPeerMsgRoundTrip(t *testing.T) {
	for _, m := range sampleMsgs() {
		raw, err := encodePeerMsg(&m)
		if err != nil {
			t.Fatalf("%d: encode: %v", m.Type, err)
		}
		if raw[0] != binMagic || raw[1] != binVersion {
			t.Fatalf("%d: header 0x%02x 0x%02x, want the magic and version %d", m.Type, raw[0], raw[1], binVersion)
		}
		got, err := decodePeerMsg(raw)
		if err != nil {
			t.Fatalf("%d: decode: %v", m.Type, err)
		}
		if asJSON(t, got) != asJSON(t, m) {
			t.Fatalf("%d: round trip mismatch:\n got %s\nwant %s", m.Type, asJSON(t, got), asJSON(t, m))
		}
		// Canonical encoding: re-encoding the decoded message is
		// byte-identical (the determinism the scenario rerun gate relies on).
		again, err := encodePeerMsg(&got)
		if err != nil {
			t.Fatalf("%d: re-encode: %v", m.Type, err)
		}
		if !bytes.Equal(raw, again) {
			t.Fatalf("%d: re-encode not byte-identical", m.Type)
		}
	}
}

// TestGeneratedPeerMsgRoundTrip is the round-trip property over generated
// messages: random field mixes on every type decode back to the message
// that was encoded.
func TestGeneratedPeerMsgRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	id := func(prefix string) string {
		return fmt.Sprintf("%s-%02d", prefix, rng.Intn(100))
	}
	at := func() time.Time {
		return time.Unix(1_700_000_000+rng.Int63n(1_000_000), rng.Int63n(1_000_000_000)).UTC()
	}
	for i := 0; i < 200; i++ {
		m := Msg{Type: MsgType(rng.Intn(int(MsgPull) + 1)), From: id("d"), TTL: rng.Intn(MaxTTL + 1)}
		if rng.Intn(2) == 0 {
			m.Addr = id("addr")
		}
		switch m.Type {
		case MsgDigest:
			m.ShardCount = 1 + rng.Intn(8)
			for j := 0; j < rng.Intn(8); j++ {
				m.Digests = append(m.Digests, rng.Uint64())
			}
		case MsgDiff:
			for j := 0; j < rng.Intn(4); j++ {
				m.Shards = append(m.Shards, rng.Intn(MaxShardCount))
				m.Metas = append(m.Metas, crp.NodeMeta{
					Node: crp.NodeID(id("n")), Origin: id("d"),
					Version: rng.Uint64() % 1000, Deleted: rng.Intn(2) == 0,
				})
			}
		case MsgDelta:
			for j := 0; j < 1+rng.Intn(3); j++ {
				d := crp.NodeDelta{NodeMeta: crp.NodeMeta{
					Node: crp.NodeID(id("n")), Origin: id("d"), Version: rng.Uint64() % 1000,
				}}
				if rng.Intn(3) == 0 {
					d.Deleted, d.DeletedAt = true, at()
				}
				for k := 0; k < rng.Intn(3); k++ {
					p := crp.Probe{At: at()}
					for l := 0; l < rng.Intn(3); l++ {
						p.Replicas = append(p.Replicas, crp.ReplicaID(id("r")))
					}
					d.Probes = append(d.Probes, p)
				}
				m.Deltas = append(m.Deltas, d)
			}
		case MsgPull:
			for j := 0; j < 1+rng.Intn(4); j++ {
				m.Nodes = append(m.Nodes, id("n"))
			}
		}

		raw, err := encodePeerMsg(&m)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		got, err := decodePeerMsg(raw)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if asJSON(t, got) != asJSON(t, m) {
			t.Fatalf("case %d: round trip mismatch:\n got %s\nwant %s", i, asJSON(t, got), asJSON(t, m))
		}
	}
}

// TestBinaryPeerMsgBounds is the boundary table for the frame decoder:
// exact-limit accept, limit+1 reject, next to the decode-path table in
// wire_test.go.
func TestBinaryPeerMsgBounds(t *testing.T) {
	decode := func(m *Msg) error {
		raw, err := encodePeerMsg(m)
		if err != nil {
			return err
		}
		_, err = decodePeerMsg(raw)
		return err
	}
	base := func() Msg { return Msg{Type: MsgDigest, From: "d1"} }

	t.Run("from at limit", func(t *testing.T) {
		m := base()
		m.From = strings.Repeat("x", MaxIDBytes)
		if err := decode(&m); err != nil {
			t.Fatalf("MaxIDBytes from rejected: %v", err)
		}
	})
	t.Run("from over limit", func(t *testing.T) {
		m := base()
		m.From = strings.Repeat("x", MaxIDBytes+1)
		if err := decode(&m); err == nil {
			t.Fatal("oversized from accepted")
		}
	})
	t.Run("ttl at limit", func(t *testing.T) {
		m := Msg{Type: MsgDelta, From: "d1", TTL: MaxTTL}
		if err := decode(&m); err != nil {
			t.Fatalf("MaxTTL rejected: %v", err)
		}
	})
	t.Run("ttl over limit", func(t *testing.T) {
		m := Msg{Type: MsgDelta, From: "d1", TTL: MaxTTL + 1}
		if err := decode(&m); err == nil {
			t.Fatal("TTL over limit accepted")
		}
	})
	t.Run("digests at limit", func(t *testing.T) {
		m := base()
		m.ShardCount = MaxShardCount
		m.Digests = make([]uint64, MaxShardCount)
		if err := decode(&m); err != nil {
			t.Fatalf("MaxShardCount digests rejected: %v", err)
		}
	})
	t.Run("digests over limit", func(t *testing.T) {
		m := base()
		m.Digests = make([]uint64, MaxShardCount+1)
		if err := decode(&m); err == nil {
			t.Fatal("digest vector over limit accepted")
		}
	})
	t.Run("shard index over limit", func(t *testing.T) {
		m := Msg{Type: MsgDiff, From: "d1", Shards: []int{MaxShardCount}}
		if err := decode(&m); err == nil {
			t.Fatal("shard index at MaxShardCount accepted (valid range is [0, MaxShardCount))")
		}
	})
	t.Run("nodes at limit", func(t *testing.T) {
		m := Msg{Type: MsgPull, From: "d1", Nodes: make([]string, MaxPullNodes)}
		for i := range m.Nodes {
			m.Nodes[i] = fmt.Sprintf("n%d", i)
		}
		if err := decode(&m); err != nil {
			t.Fatalf("MaxPullNodes rejected: %v", err)
		}
	})
	t.Run("nodes over limit", func(t *testing.T) {
		m := Msg{Type: MsgPull, From: "d1", Nodes: make([]string, MaxPullNodes+1)}
		for i := range m.Nodes {
			m.Nodes[i] = fmt.Sprintf("n%d", i)
		}
		if err := decode(&m); err == nil {
			t.Fatal("pull node list over limit accepted")
		}
	})
	t.Run("replicas per probe at limit", func(t *testing.T) {
		reps := make([]crp.ReplicaID, MaxReplicasPerProbe)
		for i := range reps {
			reps[i] = crp.ReplicaID(fmt.Sprintf("r%d", i))
		}
		m := Msg{Type: MsgDelta, From: "d1", TTL: 1, Deltas: []crp.NodeDelta{{
			NodeMeta: crp.NodeMeta{Node: "n1", Version: 1},
			Probes:   []crp.Probe{{At: time.Unix(0, 0).UTC(), Replicas: reps}},
		}}}
		if err := decode(&m); err != nil {
			t.Fatalf("MaxReplicasPerProbe rejected: %v", err)
		}
	})
	t.Run("replicas per probe over limit", func(t *testing.T) {
		reps := make([]crp.ReplicaID, MaxReplicasPerProbe+1)
		for i := range reps {
			reps[i] = crp.ReplicaID(fmt.Sprintf("r%d", i))
		}
		m := Msg{Type: MsgDelta, From: "d1", TTL: 1, Deltas: []crp.NodeDelta{{
			NodeMeta: crp.NodeMeta{Node: "n1", Version: 1},
			Probes:   []crp.Probe{{At: time.Unix(0, 0).UTC(), Replicas: reps}},
		}}}
		if err := decode(&m); err == nil {
			t.Fatal("replica set over limit accepted")
		}
	})
	t.Run("deltas binary count over limit", func(t *testing.T) {
		// A count past MaxDeltas is rejected by the ceiling check before
		// the remaining-bytes check can even apply.
		var e binwire.Enc
		e.U8(binMagic)
		e.U8(binVersion)
		e.U8(byte(MsgDelta))
		e.String("d1")
		e.String("")
		e.Uvarint(1) // ttl
		e.Uvarint(0) // shardCount
		e.Uvarint(0) // digests
		e.Uvarint(0) // shards
		e.Uvarint(0) // metas
		e.Uvarint(MaxDeltas + 1)
		if _, err := decodeBinaryPeerMsg(e.Bytes()); err == nil {
			t.Fatal("binary delta count over limit accepted")
		}
	})
	t.Run("unknown type code", func(t *testing.T) {
		var e binwire.Enc
		e.U8(binMagic)
		e.U8(binVersion)
		e.U8(99)
		if _, err := decodePeerMsg(e.Bytes()); err == nil {
			t.Fatal("unknown type code accepted")
		}
	})
	t.Run("unknown version", func(t *testing.T) {
		raw, err := encodePeerMsg(&Msg{Type: MsgJoin, From: "d1"})
		if err != nil {
			t.Fatal(err)
		}
		raw[1] = binVersion + 1
		if _, err := decodePeerMsg(raw); err == nil {
			t.Fatal("unknown binary version accepted")
		}
	})
	t.Run("version 1 frame", func(t *testing.T) {
		// A version 1 frame carried a codec-advertisement string after
		// addr; it must be refused by version, not misparsed as ttl.
		var e binwire.Enc
		e.U8(binMagic)
		e.U8(1)
		e.U8(byte(MsgJoin))
		e.String("d1")
		e.String("127.0.0.1:9000")
		e.String("bin1")
		for i := 0; i < 8; i++ {
			e.Uvarint(0) // ttl, shardCount and the six collection counts
		}
		_, err := decodePeerMsg(e.Bytes())
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version 1 frame: err = %v, want an unsupported-version error", err)
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		raw, err := encodePeerMsg(&Msg{Type: MsgJoin, From: "d1"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodePeerMsg(append(raw, 0)); err == nil {
			t.Fatal("trailing bytes accepted")
		}
	})
	t.Run("every truncation fails cleanly", func(t *testing.T) {
		for _, m := range sampleMsgs() {
			raw, err := encodePeerMsg(&m)
			if err != nil {
				t.Fatal(err)
			}
			for cut := 0; cut < len(raw); cut++ {
				if _, err := decodePeerMsg(raw[:cut]); err == nil {
					t.Fatalf("type %d truncated to %d/%d bytes accepted", m.Type, cut, len(raw))
				}
			}
		}
	})
}

// TestWorstCaseDigestFitsTheWire pins the MaxShardCount sizing argument: the
// worst-case digest message at the full shard width — maximal sender
// identity and address — must encode under MaxMsgSize.
func TestWorstCaseDigestFitsTheWire(t *testing.T) {
	digests := make([]uint64, MaxShardCount)
	for i := range digests {
		digests[i] = 1<<64 - 1
	}
	m := Msg{
		Type:       MsgDigest,
		From:       strings.Repeat("x", MaxIDBytes),
		Addr:       strings.Repeat("y", MaxIDBytes),
		ShardCount: MaxShardCount,
		Digests:    digests,
	}
	raw, err := encodePeerMsg(&m)
	if err != nil {
		t.Fatalf("worst-case digest unencodable: %v", err)
	}
	if len(raw) > MaxMsgSize {
		t.Fatalf("worst-case digest is %d bytes, exceeds MaxMsgSize %d", len(raw), MaxMsgSize)
	}
}

// TestEncodeRejectsUnsendable is the 65508..65536-gap regression: a message
// whose encoding lands between the old 64 KiB bound and the UDP payload
// ceiling used to pass the encoder's size check and then fail at WriteTo.
// Now the encoder rejects it and nothing reaches the socket.
func TestEncodeRejectsUnsendable(t *testing.T) {
	// Build a pull message and pad the node list until the encoding lands
	// inside the gap: 64-byte entries up to just below the ceiling, then one
	// entry sized to land at 65512.
	m := Msg{Type: MsgPull, From: "d1"}
	size := func() int {
		raw, err := encodePeerMsg(&m)
		if err != nil {
			t.Fatal(err)
		}
		return len(raw)
	}
	for size() <= 65507-256 {
		m.Nodes = append(m.Nodes, fmt.Sprintf("%s%04d", strings.Repeat("n", 60), len(m.Nodes)))
	}
	// A node of length L (128 <= L < 16384) grows the frame by L+2 bytes;
	// the node count stays a two-byte uvarint.
	n := size()
	last := strings.Repeat("q", 65512-n-2)
	m.Nodes = append(m.Nodes, last)
	if got := n + binwire.StringLen(last); got <= 65507 || got > 65536 {
		t.Fatalf("setup failed to land in the gap: %d bytes", got)
	}
	if raw, err := encodePeerMsg(&m); err == nil {
		t.Fatalf("encoder accepted a %d-byte message no UDP datagram can carry", len(raw))
	}

	// Engine-level: the send path must drop it (send_errors) and write
	// nothing to the socket.
	mesh := NewMemMesh()
	svc := crp.NewServiceWithStore(crp.StoreConfig{Shards: 4})
	p, err := New(Config{
		Self: "gap-self", Addr: "gap-self", Service: svc,
		Registry: obs.NewRegistry(), Resolve: mesh.Resolve,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Attach(mesh.Conn("gap-self"))
	peerConn := mesh.Conn("gap-peer") // register before sending: MemMesh drops to unknown addrs
	if _, err := p.send(memAddr("gap-peer"), &m); err == nil {
		t.Fatal("send accepted an unsendable message")
	}
	if got := p.Stats().SendErrors; got != 1 {
		t.Fatalf("send_errors = %d, want 1", got)
	}
	buf := make([]byte, MaxMsgSize+1)
	if n, _, err := peerConn.ReadFrom(buf); err == nil {
		t.Fatalf("a %d-byte datagram reached the socket", n)
	}
}

// TestOversizedDatagramDropped is the read-side half of the truncation
// regression: a datagram larger than MaxMsgSize (only observable because the
// read buffer is one byte larger than the bound) is counted as oversize and
// never reaches a decoder.
func TestOversizedDatagramDropped(t *testing.T) {
	mesh := NewMemMesh()
	svc := crp.NewServiceWithStore(crp.StoreConfig{Shards: 4})
	p, err := New(Config{
		Self: "ovr-self", Addr: "ovr-self", Service: svc,
		Registry: obs.NewRegistry(), Resolve: mesh.Resolve,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Attach(mesh.Conn("ovr-self"))

	// Simulate what the read loop sees for a too-large datagram: its
	// MaxMsgSize+1 buffer filled completely.
	huge := make([]byte, MaxMsgSize+1)
	join, err := encodePeerMsg(&Msg{Type: MsgJoin, From: "ovr-peer"})
	if err != nil {
		t.Fatal(err)
	}
	copy(huge, join) // a valid message followed by what the kernel cut off
	p.HandleDatagram(huge, memAddr("ovr-peer"))
	st := p.Stats()
	if st.OversizeMsgs != 1 {
		t.Fatalf("oversize_msgs = %d, want 1", st.OversizeMsgs)
	}
	if st.BadMsgs != 0 {
		t.Fatalf("bad_msgs = %d, want 0 — truncated bytes must not reach the decoder", st.BadMsgs)
	}
	if len(p.Status().Peers) != 0 {
		t.Fatal("truncated join registered a peer")
	}
}

// TestSendDeltasPacksToBudget pins the size-driven batching: entries small
// enough to share a datagram are batched together, and every emitted
// datagram respects MaxMsgSize.
func TestSendDeltasPacksToBudget(t *testing.T) {
	mesh := NewMemMesh()
	svc := crp.NewServiceWithStore(crp.StoreConfig{Shards: 4})
	p, err := New(Config{
		Self: "pack-self", Addr: "pack-self", Service: svc,
		Registry: obs.NewRegistry(), Resolve: mesh.Resolve,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Attach(mesh.Conn("pack-self"))
	conn := mesh.Conn("pack-peer") // register before sending: MemMesh drops to unknown addrs
	if err := p.AddPeer("pack-peer", "pack-peer"); err != nil {
		t.Fatal(err)
	}
	ps := p.peerByID("pack-peer")

	deltas := make([]crp.NodeDelta, 600)
	for i := range deltas {
		deltas[i] = crp.NodeDelta{NodeMeta: crp.NodeMeta{
			Node: crp.NodeID(fmt.Sprintf("node-%04d", i)), Origin: "pack-self", Version: 1,
		}}
	}
	p.sendDeltas(ps, deltas, 1)

	buf := make([]byte, MaxMsgSize+1)
	msgs, total := 0, 0
	for {
		n, _, err := conn.ReadFrom(buf)
		if err != nil {
			break
		}
		if n > MaxMsgSize {
			t.Fatalf("packed datagram is %d bytes, exceeds MaxMsgSize", n)
		}
		m, err := decodePeerMsg(buf[:n])
		if err != nil {
			t.Fatalf("packed datagram undecodable: %v", err)
		}
		msgs++
		total += len(m.Deltas)
	}
	if total != 600 {
		t.Fatalf("delivered %d deltas, want 600", total)
	}
	if msgs != 1 {
		// 600 minimal entries are ~11 KB — they must share one datagram
		// under size-driven packing (count-driven would need 19 at 32/msg).
		t.Fatalf("600 small deltas used %d datagrams, want 1", msgs)
	}
}

// corruptedBinarySeeds returns the hand-built malformed binary datagrams the fuzz
// corpus checks in alongside the valid encodings: each one pins a distinct
// decoder rejection path.
func corruptedBinarySeeds(valid [][]byte) [][]byte {
	var out [][]byte
	for _, raw := range valid {
		out = append(out, raw[:len(raw)/2])                       // truncated mid-structure
		out = append(out, append(append([]byte(nil), raw...), 0)) // trailing byte
	}
	bad := append([]byte(nil), valid[0]...)
	bad[1] = binVersion + 1 // unsupported version
	out = append(out, bad)
	var e binwire.Enc
	e.U8(binMagic)
	e.U8(binVersion)
	e.U8(99) // unknown type code
	out = append(out, append([]byte(nil), e.Bytes()...))
	return out
}

// FuzzDecodeBinaryPeerMsg fuzzes the gossip decoder: never panic, never
// accept an out-of-bounds message, and everything accepted re-encodes
// canonically and survives the full datagram handler against a store that
// holds an entry.
// The checked-in corpus under testdata/fuzz seeds every message type plus
// the corruption shapes above (regenerate with REGEN_FUZZ_CORPUS=1).
func FuzzDecodeBinaryPeerMsg(f *testing.F) {
	var valid [][]byte
	for _, m := range sampleMsgs() {
		raw, err := encodePeerMsg(&m)
		if err != nil {
			f.Fatal(err)
		}
		valid = append(valid, raw)
		f.Add(raw)
	}
	for _, raw := range corruptedBinarySeeds(valid) {
		f.Add(raw)
	}

	mesh := NewMemMesh()
	svc := crp.NewServiceWithStore(crp.StoreConfig{Shards: 4})
	p, err := New(Config{
		Self: "binfuzz-self", Addr: "binfuzz-self", Service: svc,
		Registry: obs.NewRegistry(), Resolve: mesh.Resolve, Seed: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	p.Attach(mesh.Conn("binfuzz-self"))
	if err := p.AddPeer("binfuzz-peer", "binfuzz-peer"); err != nil {
		f.Fatal(err)
	}
	if err := svc.Observe("seed-node", time.Unix(0, 0), "r1", "r2"); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := decodePeerMsg(raw)
		if err != nil {
			p.HandleDatagram(raw, memAddr("binfuzz-peer")) // must not panic on rejects either
			return
		}
		if m.Type > MsgPull || len(m.From) > MaxIDBytes || m.TTL > MaxTTL || m.ShardCount > MaxShardCount ||
			len(m.Digests) > MaxShardCount || len(m.Deltas) > MaxDeltas ||
			len(m.Metas) > MaxMetas || len(m.Nodes) > MaxPullNodes {
			t.Fatalf("decoder accepted out-of-bounds message: %+v", m)
		}
		// Accepted messages re-encode canonically: encode is total on
		// decoder output and a second decode agrees.
		re, err := encodePeerMsg(&m)
		if err != nil {
			t.Fatalf("decoded message unencodable: %v", err)
		}
		m2, err := decodePeerMsg(re)
		if err != nil {
			t.Fatalf("re-encoded message undecodable: %v", err)
		}
		if asJSON(t, m) != asJSON(t, m2) {
			t.Fatalf("re-encode round trip drifted")
		}
		p.HandleDatagram(raw, memAddr("binfuzz-peer"))
	})
}

// TestGenerateFuzzCorpus writes the checked-in seed corpus for
// FuzzDecodeBinaryPeerMsg. It is a no-op unless REGEN_FUZZ_CORPUS is set,
// so the corpus only changes deliberately.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("REGEN_FUZZ_CORPUS") == "" {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeBinaryPeerMsg")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var valid [][]byte
	for _, m := range sampleMsgs() {
		raw, err := encodePeerMsg(&m)
		if err != nil {
			t.Fatal(err)
		}
		valid = append(valid, raw)
	}
	for i, raw := range append(valid, corruptedBinarySeeds(valid)...) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", raw)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
