package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// The served run owns a listener, a sampler and an SFAPI facade: all of
// them must be gone once run returns.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// smallRun keeps both campaigns to a second or so.
var smallRun = []string{"-scans", "5", "-campaign-scans", "2"}

func TestRunOneshotPrintsStatus(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), append([]string{"-oneshot"}, smallRun...), &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	for _, want := range []string{
		"Table 2: summary statistics",
		"nersc_recon_flow       5",
		"campaign: 4 beamlines",
		"facility health:",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("status lacks %q:\n%s", want, stdout.String())
		}
	}
	if strings.Contains(stderr.String(), "listening") {
		t.Error("a -oneshot run started listening")
	}
}

// lockedBuffer is a bytes.Buffer the server may write while the test reads.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRunServesAndDrains starts the server on an ephemeral port, scrapes
// the operator endpoints, then cancels: run drains and returns nil, and
// TestMain's leak check holds it to leaving nothing running.
func TestRunServesAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stderr := &lockedBuffer{}
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, smallRun...), io.Discard, stderr)
	}()

	listening := regexp.MustCompile(`listening url=(http://127\.0\.0\.1:\d+/)`)
	var base string
	for deadline := time.Now().Add(30 * time.Second); base == ""; {
		if m := listening.FindStringSubmatch(stderr.String()); m != nil {
			base = m[1]
			break
		}
		select {
		case err := <-errc:
			t.Fatalf("run returned before listening: %v\n%s", err, stderr.String())
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("no bound address printed:\n%s", stderr.String())
		}
	}

	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}
	for _, path := range []string{"metrics", "api/flows", "api/events", "api/slo", "api/telemetry"} {
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET /%s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Errorf("GET /%s: %s with %d bytes, want 200 with a body", path, resp.Status, len(body))
		}
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("drained run returned %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run did not return after cancellation")
	}
	for _, want := range []string{"signal received, draining", "shutdown complete"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("journal lacks %q:\n%s", want, stderr.String())
		}
	}
}

func TestRunRejectsUnknownFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-no-such-flag"}, &stdout, &stderr)
	if !errors.Is(err, errUsage) {
		t.Fatalf("err = %v, want a usage error", err)
	}
	if !strings.Contains(stderr.String(), "-no-such-flag") || stdout.Len() != 0 {
		t.Errorf("stderr %q, stdout %q: want the flag named on stderr and nothing on stdout", stderr.String(), stdout.String())
	}
}
