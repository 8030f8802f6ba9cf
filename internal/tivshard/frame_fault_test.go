package tivshard_test

import (
	"testing"

	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivshard"
	"tivaware/internal/tivshard/testcluster"
)

// Framed-transport fault coverage: the gateway must stay exact when
// its shard dialing runs over persistent frames and when a framed
// shard is killed outright (redial + failover).

// framedCluster boots a 3-shard cluster whose gateway dials the shards
// over the framed transport.
func framedCluster(t *testing.T, seed int64) (*testcluster.Cluster, *tivshard.FakeClock, *tivaware.Service) {
	t.Helper()
	cfg := synth.DS2Like(36, seed)
	cfg.MissingFrac = 0.08
	sp, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, clk := clockedCluster(t, testcluster.Config{Matrix: sp.Matrix, Shards: 3, Workers: 1, Frames: true}, 0)
	mono, err := c.NewMonolith()
	if err != nil {
		t.Fatal(err)
	}
	return c, clk, mono
}

// TestFramedGatewayExact re-proves the PR 5 exactness bar with every
// shard call riding persistent frames instead of HTTP.
func TestFramedGatewayExact(t *testing.T) {
	c, _, mono := framedCluster(t, 19)
	assertAgreement(t, mono, c)
	assertBatchAgreement(t, mono, c.Gateway)
}

// TestFramedGatewayKilledShardRedial is the redial-after-SIGKILL case
// over frames: killing a shard aborts its framed connections mid-use,
// the gateway's retry taxonomy fails the batch over to live replicas
// (exactly), and after a restart the redialed frames serve it again.
func TestFramedGatewayKilledShardRedial(t *testing.T) {
	c, clk, mono := framedCluster(t, 23)
	assertAgreement(t, mono, c)

	c.KillShard(0)
	// Every query must stay exact while shard 0's framed conns die
	// and the breaker learns the shard is gone.
	assertAgreement(t, mono, c)
	assertBatchAgreement(t, mono, c.Gateway)
	tickUntilStatus(t, clk, c.Gateway, "degraded")

	if err := c.RestartShard(0); err != nil {
		t.Fatal(err)
	}
	tickUntilStatus(t, clk, c.Gateway, "ok")
	assertAgreement(t, mono, c)
	assertBatchAgreement(t, mono, c.Gateway)
}
