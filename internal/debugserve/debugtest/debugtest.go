// Package debugtest checks a server binary's -debug-addr flag from its
// command test.
package debugtest

import (
	"bytes"
	"io"
	"log"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// lockedBuffer is a log sink a test reads while run writes to it.
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

// Check starts a binary's run with args plus -debug-addr 127.0.0.1:0,
// reads the address it logs, fetches a heap profile and the expvar page
// there, and stops it.
func Check(t *testing.T, run func(args []string, stop <-chan os.Signal) error, args ...string) {
	t.Helper()
	var logs lockedBuffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- run(append(args, "-debug-addr", "127.0.0.1:0"), stop) }()
	bound := regexp.MustCompile(`debug handlers on (http://\S+/debug/)`)
	var base string
	for deadline := time.Now().Add(10 * time.Second); base == ""; time.Sleep(10 * time.Millisecond) {
		select {
		case err := <-done:
			t.Fatalf("run returned before serving: %v; log:\n%s", err, logs.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no debug address logged; log:\n%s", logs.String())
		}
		if m := bound.FindStringSubmatch(logs.String()); m != nil {
			base = m[1]
		}
	}
	for path, want := range map[string]string{"pprof/heap?debug=1": "heap profile", "vars": `"memstats"`} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck // read in full
		if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("GET %s%s: status %d, %d bytes (err %v), want %q in the body", base, path, resp.StatusCode, len(body), err, want)
		}
	}
	stop <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
