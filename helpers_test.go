package brisa_test

import (
	"testing"

	brisa "repro"
)

// newTestCluster builds a cluster or fails the test: the test configurations
// are static, so a constructor error is always a bug in the test itself. The
// cluster is closed when the test ends, releasing its simulator workers.
func newTestCluster(tb testing.TB, cfg brisa.ClusterConfig) *brisa.Cluster {
	tb.Helper()
	c, err := brisa.NewCluster(cfg)
	if err != nil {
		tb.Fatalf("NewCluster: %v", err)
	}
	tb.Cleanup(c.Close)
	return c
}

// joinNew adds a fresh peer to the cluster or fails the test.
func joinNew(tb testing.TB, c *brisa.Cluster) *brisa.Peer {
	tb.Helper()
	p, err := c.JoinNew()
	if err != nil {
		tb.Fatalf("JoinNew: %v", err)
	}
	return p
}
