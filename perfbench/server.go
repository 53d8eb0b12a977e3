package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"lopram/internal/jobqueue"
	"lopram/internal/jobtrace"
	"lopram/internal/lopramhttp"
)

// nproc bounds the load: at most this many connections and load
// goroutines, and the queue's worker count.
var nproc = runtime.GOMAXPROCS(0)

// queueConfig is lopramd's default configuration (workers = nproc, one
// shard, a 512-entry cache), with the flight recorder attached when sink
// is not nil.
func queueConfig(sink jobtrace.Sink) jobqueue.Config {
	return jobqueue.Config{
		Workers:        nproc,
		Shards:         1,
		QueueDepth:     1024,
		BatchShare:     0.5,
		CacheSize:      512,
		DefaultTimeout: 60 * time.Second,
		TraceSink:      sink,
	}
}

// server is lopramd's HTTP surface over one queue, served in this process
// on a loopback listener, plus the pooled client the load uses.
type server struct {
	q     *jobqueue.Queue
	srv   *http.Server
	base  string
	httpc *http.Client
	done  chan error
}

func startServer(sink jobtrace.Sink) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	q := jobqueue.New(queueConfig(sink))
	s := &server{
		q:    q,
		srv:  &http.Server{Handler: lopramhttp.NewMux(q)},
		base: "http://" + ln.Addr().String(),
		httpc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     nproc,
			MaxIdleConnsPerHost: nproc,
			DisableCompression:  true,
		}},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the listener and the queue and waits for both. Once it
// returns, a trace sink attached to the queue holds every record.
func (s *server) close() error {
	s.httpc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.q.Close()
	return err
}
