package pva

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestPublishRacesClose publishes projections and end-of-scans from
// several goroutines while the server closes under them. Close used to
// close monitor queues a publisher had already taken from the channel
// map, a data race that could panic with "send on closed channel"; run
// it under -race -count.
func TestPublishRacesClose(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewMonitor(srv.Addr(), "det1")
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	waitMonitors(t, srv, "det1", 1)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		kind := KindProjection
		if g%2 == 1 {
			kind = KindEndOfScan
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(1); ; seq++ {
				if srv.Publish("det1", mkFrame(seq, kind)) != nil {
					return // the server closed
				}
			}
		}()
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait() // every publisher returns: none is left blocked on an end-of-scan
}

// TestEndOfScanReturnsWhenMonitorGone: once a monitor's connection dies,
// nothing drains its queue. An end-of-scan published to that queue while
// it is full must return instead of blocking forever.
func TestEndOfScanReturnsWhenMonitorGone(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mon, err := NewMonitor(srv.Addr(), "det1")
	if err != nil {
		t.Fatal(err)
	}
	waitMonitors(t, srv, "det1", 1)
	srv.mu.Lock()
	var q *queue
	for _, mq := range srv.channels["det1"] {
		q = mq
	}
	srv.mu.Unlock()

	// Projections make the server write to the closed connection until a
	// write fails and the monitor's connection handler exits.
	mon.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for seq := uint64(1); srv.Monitors("det1") > 0; seq++ {
		if err := srv.Publish("det1", mkFrame(seq, KindProjection)); err != nil {
			t.Fatal(err)
		}
		select {
		case <-ctx.Done():
			t.Fatal("monitor never noticed its connection closed")
		case <-tick.C:
		}
	}

	// A publisher that took the queue from the map just before the
	// handler exited still holds it: put it back, full.
	select {
	case q.ch <- nil:
	default:
	}
	srv.mu.Lock()
	srv.channels["det1"][0] = q
	srv.mu.Unlock()
	published := make(chan error, 1)
	go func() { published <- srv.Publish("det1", mkFrame(1, KindEndOfScan)) }()
	select {
	case err := <-published:
		if err != nil {
			t.Fatal(err)
		}
	case <-ctx.Done():
		t.Fatal("end-of-scan publish blocked on a queue nothing drains")
	}
}
