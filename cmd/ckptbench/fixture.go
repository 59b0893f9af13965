package main

import (
	"context"
	"math/rand"
	"net"

	gpuckpt "github.com/gpuckpt/gpuckpt"
	"github.com/gpuckpt/gpuckpt/internal/experiments"
	"github.com/gpuckpt/gpuckpt/internal/server"
)

// serviceBufLen is the buffer the service experiments (saturate,
// failover, heal, dedupx) checkpoint.
const serviceBufLen = 256 << 10

// splotch rewrites n random 64-byte runs of buf: a step that changes a
// few chunks, so each incremental diff is small and the per-frame and
// per-record overheads the service experiments measure actually show.
func splotch(rng *rand.Rand, buf []byte, n int) {
	for s := 0; s < n; s++ {
		off := rng.Intn(len(buf) - 64)
		rng.Read(buf[off : off+64])
	}
}

// buildChain takes the service experiments' one chain: a buffer seeded
// from cfg.Seed, 8 splotches per step, chain Tree checkpoints. each,
// when set, runs after checkpoint k is taken — the live regimes push
// from there. It returns the checkpointer (the caller closes it), the
// chunk size it used and the final image.
func buildChain(cfg experiments.Config, chain int, each func(ck *gpuckpt.Checkpointer, k int) error) (ck *gpuckpt.Checkpointer, chunk int, want []byte, err error) {
	chunk = cfg.ChunkSize
	if chunk <= 0 {
		chunk = 128
	}
	ck, err = gpuckpt.New(gpuckpt.Config{
		Method: gpuckpt.MethodTree, ChunkSize: chunk, Workers: cfg.Workers,
	}, serviceBufLen)
	if err != nil {
		return nil, 0, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	buf := make([]byte, serviceBufLen)
	rng.Read(buf)
	for k := 0; k < chain && err == nil; k++ {
		if k > 0 {
			splotch(rng, buf, 8)
		}
		if _, err = ck.Checkpoint(buf); err == nil && each != nil {
			err = each(ck, k)
		}
	}
	if err == nil {
		want, err = ck.RestoreLatest()
	}
	if err != nil {
		ck.Close()
		return nil, 0, nil, err
	}
	return ck, chunk, want, nil
}

// startServer runs an in-process ckptd with silent logs on ln, which it
// owns from here on. stop ends Serve, waits for it and closes the
// server.
func startServer(cfg server.Config, ln net.Listener) (srv *server.Server, stop func(), err error) {
	cfg.Logf = func(string, ...any) {}
	if srv, err = server.New(cfg); err != nil {
		ln.Close()
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	return srv, func() {
		cancel()
		<-done
		srv.Close()
	}, nil
}
