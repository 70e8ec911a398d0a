package main

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestUsageErrors: bad flags exit 2 without binding anything.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-queue", "0"},
		{"-jobs", "0"},
		{"-no-such-flag"},
	} {
		var out, errBuf bytes.Buffer
		if code := run(args, &out, &errBuf, nil); code != 2 {
			t.Errorf("run(%v) = %d, want 2\n%s", args, code, errBuf.String())
		}
	}
}

// TestBootSubmitAndDrain boots the daemon on an ephemeral port, submits
// a job over HTTP, then SIGTERMs the process and expects a clean drain:
// the accepted job finishes, the process logs the drain and exits 0.
func TestBootSubmitAndDrain(t *testing.T) {
	var errBuf syncBuffer
	ready := make(chan string, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0"}, io.Discard, &errBuf, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	resp, err := http.Post("http://"+addr+"/jobs", "application/json",
		strings.NewReader(`{"design":"v2","addr_width":6,"words":4}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d\n%s", resp.StatusCode, body)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d, want 0\n%s", code, errBuf.String())
		}
	case <-time.After(2 * time.Minute):
		t.Fatalf("daemon never drained\n%s", errBuf.String())
	}
	if log := errBuf.String(); !strings.Contains(log, "drained cleanly") {
		t.Fatalf("log missing clean-drain line:\n%s", log)
	}
}

// syncBuffer guards the log buffer: the daemon goroutine writes while
// the test reads on timeout paths.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
