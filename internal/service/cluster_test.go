package service

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// clusterNode is one daemon of a test fleet: a full Server wired to a
// Cluster, listening on a real TCP port (peers dial each other over
// loopback, exactly as a deployed fleet would).
type clusterNode struct {
	srv *Server
	hs  *httptest.Server
	url string
}

// startCluster boots n daemons that share one peer list. Each node gets
// its own Store seeded from the same snapshot parameters, so the fleet
// starts aligned at v1 the way `make serve-cluster` boots it.
func startCluster(t *testing.T, n int) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, n)
	peers := make([]string, n)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		hs := &httptest.Server{Listener: ln, Config: &http.Server{}}
		nodes[i] = &clusterNode{hs: hs, url: "http://" + ln.Addr().String()}
		peers[i] = nodes[i].url
	}
	for _, node := range nodes {
		store, err := NewStore(testSnapshot(t, 64, 1))
		if err != nil {
			t.Fatal(err)
		}
		cluster, err := NewCluster(ClusterConfig{
			Self:    node.url,
			Peers:   peers,
			Timeout: 5 * time.Second,
			Logf:    t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(Config{Store: store, Cluster: cluster, Workers: 2, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		node.srv = srv
		node.hs.Config.Handler = srv.Handler()
		node.hs.Start()
		t.Cleanup(node.hs.Close)
		t.Cleanup(srv.Close)
	}
	return nodes
}

// clusterRequests is a small seeded request stream covering cached
// repeats, novel seeds, and both solver families.
func clusterRequests(n int) []MapRequest {
	reqs := make([]MapRequest, n)
	for i := range reqs {
		reqs[i] = MapRequest{Workload: "LU", Procs: 16, Seed: int64(1 + i%7)}
		if i%5 == 0 {
			reqs[i].Algorithm = "greedy"
		}
	}
	return reqs
}

// postMapURL posts one request to a live node over TCP and returns the
// decoded response.
func postMapURL(t *testing.T, url string, req *MapRequest) MapResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/map", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr MapResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	return mr
}

// TestClusterDigestMatchesSingleNode is the cross-node determinism
// gate: the same seeded request stream must produce a byte-identical
// combined placement digest against one daemon, against a 3-node fleet
// with hash routing (every request lands on its shard owner), and
// against the same fleet with round-robin routing (most requests land
// on non-owners and travel the peer-consult path).
func TestClusterDigestMatchesSingleNode(t *testing.T) {
	reqs := clusterRequests(30)

	single := newTestServer(t, Config{Workers: 2})
	h := single.Handler()
	baseline := make([]string, len(reqs))
	for i := range reqs {
		var mr MapResponse
		postMap(t, h, reqs[i], http.StatusOK, &mr)
		baseline[i] = mr.Digest
	}
	want := CombinedDigest(baseline)

	nodes := startCluster(t, 3)
	ring := nodes[0].srv.cluster.Ring()

	hashed := make([]string, len(reqs))
	for i := range reqs {
		hashed[i] = postMapURL(t, ring.Owner(RoutingKey(&reqs[i])), &reqs[i]).Digest
	}
	if got := CombinedDigest(hashed); got != want {
		t.Errorf("hash-routed fleet digest %s != single-node %s", got, want)
	}

	rr := make([]string, len(reqs))
	peerFilled := 0
	for i := range reqs {
		mr := postMapURL(t, nodes[i%len(nodes)].url, &reqs[i])
		rr[i] = mr.Digest
		if mr.Peer {
			peerFilled++
		}
	}
	if got := CombinedDigest(rr); got != want {
		t.Errorf("round-robin fleet digest %s != single-node %s", got, want)
	}

	// Round-robin routing must actually have exercised the cluster: some
	// requests landed on non-owners and were answered via peer consults.
	var peerHits, forwarded uint64
	for _, node := range nodes {
		v := node.srv.Metrics().Snapshot(0, 0)
		peerHits += v.PeerHits
		forwarded += v.Forwarded
	}
	if peerHits == 0 || forwarded == 0 {
		t.Errorf("peer_hits = %d, forwarded = %d; round-robin run never consulted a peer", peerHits, forwarded)
	}
	if peerFilled == 0 {
		t.Error("no round-robin response carried peer=true")
	}
}

// TestClusterSnapshotReplication posts fresh matrices to one node and
// expects the whole fleet to converge on the same version — the fan-out
// is synchronous, so by the time the POST returns every reachable peer
// has applied it. Replays must be idempotent.
func TestClusterSnapshotReplication(t *testing.T) {
	nodes := startCluster(t, 3)
	base := nodes[0].srv.store.Current()
	m := base.M()

	// Fresh matrices: scale ground truth so the update is valid but
	// distinguishable.
	lt := make([][]float64, m)
	bt := make([][]float64, m)
	for i := 0; i < m; i++ {
		lt[i] = make([]float64, m)
		bt[i] = make([]float64, m)
		for j := 0; j < m; j++ {
			lt[i][j] = base.LT.At(i, j) * 2
			bt[i][j] = base.BT.At(i, j) / 2
		}
	}
	upd := SnapshotUpdate{Source: "test-calibration", LT: lt, BT: bt}
	body, err := json.Marshal(upd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(nodes[0].url+"/admin/snapshot", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin post: status %d", resp.StatusCode)
	}

	for i, node := range nodes {
		cur := node.srv.store.Current()
		if cur.Version != 2 {
			t.Errorf("node %d is at v%d, want the replicated v2", i, cur.Version)
		}
		if got := cur.LT.At(0, 1); got != base.LT.At(0, 1)*2 {
			t.Errorf("node %d LT(0,1) = %g, want the replicated %g", i, got, base.LT.At(0, 1)*2)
		}
	}
	if src := nodes[1].srv.store.Current().Source; src != "test-calibration" {
		t.Errorf("replicated source = %q, want origin's", src)
	}

	// Replaying the replication message directly at a peer is a no-op:
	// same version, no error, model unchanged.
	rep := replicationUpdate(nodes[0].srv.store.Current())
	repBody, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	before := nodes[2].srv.store.Current()
	resp, err = http.Post(nodes[2].url+"/admin/snapshot", "application/json", bytes.NewReader(repBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay post: status %d", resp.StatusCode)
	}
	if nodes[2].srv.store.Current() != before {
		t.Error("idempotent replay replaced the snapshot")
	}
}

// TestClusterPeerDownFallsBackLocally kills one node and sends it every
// request: the survivors must keep answering correctly by solving
// locally, record the peer failures, and degrade (not fail) their
// health probes.
func TestClusterPeerDownFallsBackLocally(t *testing.T) {
	nodes := startCluster(t, 3)
	dead := nodes[2]
	dead.hs.Close()

	reqs := clusterRequests(12)
	ring := nodes[0].srv.cluster.Ring()
	answered := 0
	for i := range reqs {
		if ring.Owner(RoutingKey(&reqs[i])) != dead.url {
			continue
		}
		// The owner is down; a surviving non-owner must still answer.
		mr := postMapURL(t, nodes[0].url, &reqs[i])
		if len(mr.Placement) != reqs[i].Procs {
			t.Fatalf("request %d: got %d-proc placement, want %d", i, len(mr.Placement), reqs[i].Procs)
		}
		if mr.Peer {
			t.Errorf("request %d reported peer-filled, but the owner is down", i)
		}
		answered++
	}
	if answered == 0 {
		t.Skip("no request in the stream hashed to the killed node")
	}
	v := nodes[0].srv.Metrics().Snapshot(0, 0)
	if v.PeerErrors == 0 {
		t.Errorf("peer_errors = 0 after %d consults of a dead owner", answered)
	}
	if _, ok := nodes[0].srv.cluster.StatusProbe(); ok {
		t.Error("cluster probe still fully healthy with a dead peer")
	}
}

// TestNewClusterValidation exercises the configuration errors.
func TestNewClusterValidation(t *testing.T) {
	peers := []string{"http://a:1", "http://b:2"}
	if _, err := NewCluster(ClusterConfig{Self: "http://c:3", Peers: peers}); err == nil {
		t.Error("self outside the peer list accepted")
	}
	if _, err := NewCluster(ClusterConfig{Self: "http://a:1", Peers: peers[:1]}); err == nil {
		t.Error("single-peer cluster accepted")
	}
	c, err := NewCluster(ClusterConfig{Self: "a:1/", Peers: peers})
	if err != nil {
		t.Fatalf("normalized self rejected: %v", err)
	}
	if !c.IsSelf("http://a:1") {
		t.Error("normalization did not unify self with its peer entry")
	}
}
