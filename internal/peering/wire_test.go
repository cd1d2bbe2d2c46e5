package peering

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/crp"
)

// TestDecodePeerMsgBounds is the decode-path boundary table: every bound
// checkPeerMsg and the frame decoder enforce, plus datagrams of the retired
// JSON codec, which must be rejected as bad messages rather than parsed.
func TestDecodePeerMsgBounds(t *testing.T) {
	longID := strings.Repeat("x", MaxIDBytes+1)
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	enc := func(m Msg) []byte {
		t.Helper()
		raw, err := encodePeerMsg(&m)
		if err != nil {
			t.Fatalf("encode %+v: %v", m, err)
		}
		return raw
	}
	withType := func(code byte) []byte {
		raw := enc(Msg{Type: MsgJoin, From: "d1"})
		raw[2] = code
		return raw
	}
	manyNodes := make([]string, MaxPullNodes+1)
	for i := range manyNodes {
		manyNodes[i] = "n"
	}
	cases := []struct {
		name    string
		raw     []byte
		wantErr string
	}{
		{"valid join", enc(Msg{Type: MsgJoin, From: "d1", Addr: "127.0.0.1:9"}), ""},
		{"valid digest", enc(Msg{Type: MsgDigest, From: "d1", ShardCount: 2, Digests: []uint64{1, 2}}), ""},
		{"valid delta", enc(Msg{Type: MsgDelta, From: "d1", TTL: 3, Deltas: []crp.NodeDelta{
			{NodeMeta: crp.NodeMeta{Node: "n1", Version: 1}, Probes: []crp.Probe{{At: at, Replicas: []crp.ReplicaID{"r1"}}}},
		}}), ""},
		{"valid pull", enc(Msg{Type: MsgPull, From: "d1", Nodes: []string{"n1", "n2"}}), ""},
		{"empty payload", nil, "bad message"},
		{"truncated json", []byte(`{"type":"del`), "bad message"},
		{"not an object", []byte(`[1,2]`), "bad message"},
		{"json datagram", []byte(`{"type":"join","from":"d1","addr":"127.0.0.1:9"}`), "bad message"},
		{"unknown type", withType(byte(MsgPull) + 1), "unknown message type"},
		{"missing type", []byte{binMagic, binVersion}, "bad message"},
		{"missing from", enc(Msg{Type: MsgDigest}), "from is required"},
		{"oversized payload", make([]byte, MaxMsgSize+1), "message too large"},
		{"oversized from", enc(Msg{Type: MsgJoin, From: longID}), "from"},
		{"oversized addr", enc(Msg{Type: MsgJoin, From: "d1", Addr: longID}), "addr"},
		{"nul in from", enc(Msg{Type: MsgJoin, From: "a\x00b"}), "NUL"},
		{"negative shard count", enc(Msg{Type: MsgDigest, From: "d1", ShardCount: -1}), "shardCount"},
		{"huge shard count", enc(Msg{Type: MsgDigest, From: "d1", ShardCount: 5000}), "shardCount"},
		{"negative shard index", enc(Msg{Type: MsgDiff, From: "d1", Shards: []int{-1}}), "shards[0]"},
		{"huge shard index", enc(Msg{Type: MsgDiff, From: "d1", Shards: []int{4096}}), "shards[0]"},
		{"empty meta node", enc(Msg{Type: MsgDiff, From: "d1", Metas: []crp.NodeMeta{{Version: 1}}}), "empty node"},
		{"oversized meta node", enc(Msg{Type: MsgDiff, From: "d1", Metas: []crp.NodeMeta{{Node: crp.NodeID(longID), Version: 1}}}), "metas[0]"},
		{"empty delta node", enc(Msg{Type: MsgDelta, From: "d1", Deltas: []crp.NodeDelta{{NodeMeta: crp.NodeMeta{Version: 1}}}}), "empty node"},
		{"oversized delta origin", enc(Msg{Type: MsgDelta, From: "d1", Deltas: []crp.NodeDelta{
			{NodeMeta: crp.NodeMeta{Node: "n", Origin: longID, Version: 1}},
		}}), "deltas[0]"},
		{"too many pull nodes", enc(Msg{Type: MsgPull, From: "d1", Nodes: manyNodes}), "nodes"},
		{"empty pull node", enc(Msg{Type: MsgPull, From: "d1", Nodes: []string{"", "n1"}}), "nodes[0] is empty"},
		{"negative ttl", enc(Msg{Type: MsgDelta, From: "d1", TTL: -1}), "ttl"},
		{"huge ttl", enc(Msg{Type: MsgDelta, From: "d1", TTL: 64}), "ttl"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodePeerMsg(tc.raw)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("decodePeerMsg(%s) = %v, want ok", truncateRaw(tc.raw), err)
				}
				return
			}
			if err == nil {
				t.Fatalf("decodePeerMsg(%s) accepted, want error containing %q", truncateRaw(tc.raw), tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %q, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func truncateRaw(raw []byte) string {
	if len(raw) > 60 {
		return fmt.Sprintf("%q...", raw[:60])
	}
	return fmt.Sprintf("%q", raw)
}
