package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// TestSlowClientBounds drives the server both modes run with raw TCP
// clients: one that stalls inside its request line is cut off at the
// header timeout, and an idle keep-alive connection is closed at the
// idle timeout. A request whose headers exceed the cap is refused.
func TestSlowClientBounds(t *testing.T) {
	srv := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	addr := ln.Addr().String()

	t.Run("stalled request line", func(t *testing.T) {
		t.Parallel()
		conn := dial(t, addr)
		start := time.Now()
		if _, err := io.WriteString(conn, "GET /v1/cou"); err != nil {
			t.Fatal(err)
		}
		waitClosed(t, conn, conn, start, readHeaderTimeout)
	})

	t.Run("idle keep-alive", func(t *testing.T) {
		t.Parallel()
		conn := dial(t, addr)
		if _, err := io.WriteString(conn, "GET /v1/count HTTP/1.1\r\nHost: dyndocd\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.Close {
			t.Fatal("server closed a keep-alive connection after its first response")
		}
		waitClosed(t, br, conn, time.Now(), idleTimeout)
	})

	t.Run("oversized headers", func(t *testing.T) {
		t.Parallel()
		conn := dial(t, addr)
		req := "GET / HTTP/1.1\r\nHost: dyndocd\r\nX-Pad: " + strings.Repeat("a", 2*maxHeaderBytes) + "\r\n\r\n"
		if _, err := io.WriteString(conn, req); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
			t.Fatalf("oversized headers: status %d, want %d", resp.StatusCode, http.StatusRequestHeaderFieldsTooLarge)
		}
	})
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// waitClosed reads r, conn's reader, until the server closes conn and
// checks that this happened about limit after start: not much before,
// and within a grace period after.
func waitClosed(t *testing.T, r io.Reader, conn net.Conn, start time.Time, limit time.Duration) {
	t.Helper()
	const grace = 3 * time.Second
	conn.SetReadDeadline(start.Add(limit + grace))
	_, err := io.Copy(io.Discard, r)
	elapsed := time.Since(start)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open %v after the client stalled (bound %v)", elapsed.Round(time.Millisecond), limit)
	}
	if elapsed < limit-limit/10 {
		t.Fatalf("connection closed after %v, before the %v bound", elapsed.Round(time.Millisecond), limit)
	}
}
