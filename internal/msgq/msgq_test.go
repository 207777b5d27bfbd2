package msgq

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/wire"
)

// waitFor polls cond until it returns true or the ctx-backed deadline
// expires. Tests synchronize on observable state through this instead of
// bare time.Sleep so -race runs are deterministic.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for !cond() {
		select {
		case <-ctx.Done():
			t.Fatalf("timed out waiting for %s", what)
		case <-tick.C:
		}
	}
}

func TestPushPullRoundTrip(t *testing.T) {
	pull, err := NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pull.Close()
	push := NewPush(pull.Addr())
	defer push.Close()

	want := []byte("three-slice preview payload")
	if err := push.Send(context.Background(), want); err != nil {
		t.Fatal(err)
	}
	got, err := pull.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q", got)
	}
}

func TestPushPullManyMessagesOrdered(t *testing.T) {
	pull, _ := NewPull("127.0.0.1:0")
	defer pull.Close()
	push := NewPush(pull.Addr())
	defer push.Close()
	const n = 200
	for i := 0; i < n; i++ {
		if err := push.Send(context.Background(), []byte(fmt.Sprintf("m%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		got, err := pull.Recv(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("m%03d", i); string(got) != want {
			t.Fatalf("out of order: got %s want %s", got, want)
		}
	}
}

func TestPullFanIn(t *testing.T) {
	pull, _ := NewPull("127.0.0.1:0")
	defer pull.Close()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			push := NewPush(pull.Addr())
			defer push.Close()
			for j := 0; j < 10; j++ {
				if err := push.Send(context.Background(), []byte{byte(i)}); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	wg.Wait()
	counts := map[byte]int{}
	for i := 0; i < 30; i++ {
		m, err := pull.Recv(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		counts[m[0]]++
	}
	for i := byte(0); i < 3; i++ {
		if counts[i] != 10 {
			t.Fatalf("pusher %d delivered %d", i, counts[i])
		}
	}
}

func TestRecvTimeout(t *testing.T) {
	pull, _ := NewPull("127.0.0.1:0")
	defer pull.Close()
	if _, err := pull.Recv(50 * time.Millisecond); err == nil {
		t.Fatal("expected timeout")
	}
}

func TestRecvAfterClose(t *testing.T) {
	pull, _ := NewPull("127.0.0.1:0")
	pull.Close()
	if _, err := pull.Recv(time.Second); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestPushToNowhereFails(t *testing.T) {
	push := NewPush("127.0.0.1:1") // nothing listens on port 1
	defer push.Close()
	if err := push.Send(context.Background(), []byte("x")); err == nil {
		t.Fatal("send to dead address should fail")
	}
}

func TestSendCancelledDuringBackoff(t *testing.T) {
	push := NewPush("127.0.0.1:1") // nothing listens on port 1
	defer push.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := push.Send(ctx, []byte("x"))
	if err == nil {
		t.Fatal("cancelled send should fail")
	}
	if got := faults.Classify(err); got != faults.Cancelled {
		t.Fatalf("Classify(%v) = %v, want Cancelled", err, got)
	}
	// The backoff path: cancel mid-wait rather than before the first dial.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	err = push.Send(ctx2, []byte("x"))
	if err == nil {
		t.Fatal("send to dead address should fail")
	}
}

func TestSendAfterClose(t *testing.T) {
	pull, _ := NewPull("127.0.0.1:0")
	defer pull.Close()
	push := NewPush(pull.Addr())
	push.Close()
	if err := push.Send(context.Background(), []byte("x")); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestPushReconnects(t *testing.T) {
	pull, _ := NewPull("127.0.0.1:0")
	addr := pull.Addr()
	push := NewPush(addr)
	defer push.Close()
	if err := push.Send(context.Background(), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := pull.Recv(time.Second); err != nil {
		t.Fatal(err)
	}
	// Kill the listener; sends should fail, then recover after a new
	// listener appears on the same port.
	pull.Close()
	// The OS may briefly hold the port after close; poll the rebind
	// instead of sleeping a fixed interval.
	var pull2 *Pull
	rebindCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for pull2 == nil {
		p2, err := NewPull(addr)
		if err == nil {
			pull2 = p2
			break
		}
		select {
		case <-rebindCtx.Done():
			t.Skipf("could not rebind %s: %v", addr, err)
		case <-time.After(2 * time.Millisecond):
		}
	}
	defer pull2.Close()
	// The first send may fail while the stale connection drains; retry.
	waitFor(t, 2*time.Second, "push to reconnect", func() bool {
		return push.Send(context.Background(), []byte("b")) == nil
	})
	if _, err := pull2.Recv(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestReqRep(t *testing.T) {
	rep, err := NewRep("127.0.0.1:0", func(req []byte) []byte {
		return append([]byte("echo:"), req...)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	req, err := NewReq(rep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer req.Close()
	for i := 0; i < 5; i++ {
		resp, err := req.Do([]byte(fmt.Sprintf("r%d", i)), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if string(resp) != fmt.Sprintf("echo:r%d", i) {
			t.Fatalf("resp = %q", resp)
		}
	}
}

func TestReqTimeout(t *testing.T) {
	// The handler blocks on a channel released at test end rather than
	// sleeping for a fixed interval: the reply is held past the client
	// deadline without leaving a timer running after the test.
	release := make(chan struct{})
	rep, _ := NewRep("127.0.0.1:0", func(req []byte) []byte {
		<-release
		return req
	})
	defer rep.Close()
	defer close(release)
	req, _ := NewReq(rep.Addr())
	defer req.Close()
	if _, err := req.Do([]byte("x"), 30*time.Millisecond); err == nil {
		t.Fatal("expected deadline error")
	}
}

// TestReqDoesNotReturnStaleReply: the reply to a request that timed out
// is still on its way when the next request goes out; it must not be
// taken as the answer to that one.
func TestReqDoesNotReturnStaleReply(t *testing.T) {
	release := make(chan struct{})
	rep, err := NewRep("127.0.0.1:0", func(req []byte) []byte {
		<-release
		return append([]byte("reply:"), req...)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	req, err := NewReq(rep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer req.Close()
	if _, err := req.Do([]byte("a"), 20*time.Millisecond); err == nil {
		t.Fatal("Do against a held handler: expected a deadline error")
	}
	close(release)
	resp, err := req.Do([]byte("b"), time.Second)
	if err == nil && string(resp) != "reply:b" {
		t.Fatalf("Do(b) = %q, want \"reply:b\" or an error", resp)
	}
}

// TestRepCloseSeversConnections: a closed Rep answers nothing more, on
// connections it accepted before Close as on new ones.
func TestRepCloseSeversConnections(t *testing.T) {
	rep, err := NewRep("127.0.0.1:0", func(req []byte) []byte { return req })
	if err != nil {
		t.Fatal(err)
	}
	req, err := NewReq(rep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer req.Close()
	if _, err := req.Do([]byte("before-close"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	rep.Close()
	if resp, err := req.Do([]byte("after-close"), 2*time.Second); err == nil {
		t.Fatalf("closed Rep answered %q", resp)
	}
}

// TestReadFrameLyingHeader: a header claiming the 1 GiB limit ahead of a
// closed connection must cost the receiver an error and about the first
// read, not a gigabyte. TestLargeFrame covers the growth past it.
func TestReadFrameLyingHeader(t *testing.T) {
	hdr := []byte{0, 0, 0, 0x40} // 1<<30, little-endian
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := wire.Read(bytes.NewReader(hdr), nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("1 GiB header followed by EOF was accepted")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 4<<20 {
		t.Errorf("wire.Read allocated %d bytes on a header alone, want < 4 MiB", d)
	}
}

func TestLargeFrame(t *testing.T) {
	pull, _ := NewPull("127.0.0.1:0")
	defer pull.Close()
	push := NewPush(pull.Addr())
	defer push.Close()
	big := make([]byte, 4<<20) // a 4 MiB preview slice
	for i := range big {
		big[i] = byte(i)
	}
	if err := push.Send(context.Background(), big); err != nil {
		t.Fatal(err)
	}
	got, err := pull.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("large frame corrupted")
	}
}
