package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"anc"
	"anc/internal/serve"
	"anc/internal/serve/client"
	"anc/internal/serve/repl"
)

// ctx is the context of every client call; each call still carries the
// client's own per-request timeout.
var ctx = context.Background()

const requestTimeout = 60 * time.Second

// server is one serve.Server fronting a durable network through a
// replication node, with the benchmark's single client connection.
type server struct {
	dir  string
	node *repl.Node
	srv  *serve.Server
	cli  *client.Client
}

// serveDurable fronts d over loopback TCP. upstream, when non-empty, makes
// the node a follower of that address.
func serveDurable(d *anc.DurableNetwork, dir, upstream string, dcfg anc.DurableConfig) (*server, error) {
	node := repl.New(d, repl.Config{Upstream: upstream, Durable: dcfg, Heartbeat: 100 * time.Millisecond, Seed: 1})
	srv := serve.New(node, serve.Config{RequestTimeout: requestTimeout, Repl: node})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		node.Close() // the start error is the one reported
		return nil, err
	}
	node.Start()
	cli, err := client.Dial(srv.Addr().String(), client.WithTimeout(requestTimeout))
	if err != nil {
		srv.Kill()
		return nil, err
	}
	return &server{dir: dir, node: node, srv: srv, cli: cli}, nil
}

func (s *server) addr() string { return s.srv.Addr().String() }

// durable is the node's current network: a follower swaps it when it
// bootstraps from a shipped snapshot.
func (s *server) durable() *anc.DurableNetwork { return s.node.Durable() }

// kill is the crash-style stop: connections drop and the WAL closes
// without a final checkpoint, so the directory must be recovered.
func (s *server) kill() {
	s.cli.Close() // the server is going away anyway
	s.srv.Kill()
}

// destroy kills the server and removes its directory.
func (s *server) destroy() {
	s.kill()
	os.RemoveAll(s.dir) // scratch state
}

// durableConfig is the primary's durability policy: fsync every frame,
// checkpoint every CPEvery logged activations, and segments small enough
// that checkpoints truncate the log within a run, so a fresh follower
// bootstraps from a shipped checkpoint as it would from a long-running
// primary.
func durableConfig(s shape) anc.DurableConfig {
	return anc.DurableConfig{Sync: anc.SyncAlways, CheckpointEvery: s.CPEvery, SegmentSize: s.SegBytes}
}

// workDir is the root of the benchmark's scratch state, inside the
// checkout; every directory a run makes is removed before it exits.
func workDir() (string, error) {
	base := os.Getenv("PERFBENCH_WORK")
	if base == "" {
		base = ".bench_build"
	}
	dir := filepath.Join(base, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// newPrimary builds the served network from the graph, makes it durable
// in dir and serves it.
func newPrimary(in *inputs, s shape, dir string) (*server, error) {
	net, err := anc.FromGraph(in.g, ancConfig(s))
	if err != nil {
		return nil, err
	}
	d, err := anc.NewDurable(net, dir, durableConfig(s))
	if err != nil {
		net.Close()
		return nil, err
	}
	return serveDurable(d, dir, "", durableConfig(s))
}

// saveBytes is the network's Save output: the state the replay contract
// says recovery and replication reproduce byte for byte.
func saveBytes(d *anc.DurableNetwork) ([]byte, error) {
	var buf bytes.Buffer
	if err := d.Unwrap().Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
