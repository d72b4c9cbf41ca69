package obs

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(b)
}

// TestServeDebugRegistrySwap pins that each debug server reads the
// registry it was started with: a later ServeDebug call with a
// different registry serves that registry's snapshot at
// /debug/metrics, and /debug/vars carries only the standard library's
// expvars, not a second copy of the registry.
func TestServeDebugRegistrySwap(t *testing.T) {
	reg1 := NewRegistry()
	reg1.NewCounter("debugswap.first", Sim, "first registry's marker").Add(11)
	s1, err := ServeDebug("127.0.0.1:0", reg1)
	if err != nil {
		t.Fatal(err)
	}
	body := getBody(t, fmt.Sprintf("http://%s/debug/metrics", s1.Addr()))
	if !strings.Contains(body, "debugswap.first counter count=11") {
		t.Fatalf("first server's /debug/metrics missing its own registry:\n%s", body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown first server: %v", err)
	}

	reg2 := NewRegistry()
	reg2.NewCounter("debugswap.second", Sim, "second registry's marker").Add(22)
	s2, err := ServeDebug("127.0.0.1:0", reg2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	body = getBody(t, fmt.Sprintf("http://%s/debug/metrics", s2.Addr()))
	if !strings.Contains(body, "debugswap.second") || strings.Contains(body, "debugswap.first") {
		t.Fatalf("/debug/metrics does not serve the second registry alone:\n%s", body)
	}
	body = getBody(t, fmt.Sprintf("http://%s/debug/vars", s2.Addr()))
	if !strings.Contains(body, "memstats") || strings.Contains(body, "debugswap") {
		t.Fatalf("/debug/vars should hold the stdlib expvars only:\n%s", body)
	}
}

// TestServeDebugSlowlorisTimeout is the regression test for the
// missing ReadHeaderTimeout: before the fix the debug server ran bare
// http.Serve, so a client that dialled and never finished its headers
// held its connection (and a handler goroutine's worth of state) open
// forever. With the hardened server the connection is torn down once
// ReadHeaderTimeout expires.
func TestServeDebugSlowlorisTimeout(t *testing.T) {
	timeouts := ServerTimeouts{
		ReadHeader: 150 * time.Millisecond,
		Read:       300 * time.Millisecond,
		Idle:       time.Second,
	}
	s, err := serveDebug("127.0.0.1:0", NewRegistry(), timeouts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request line, then silence: a slowloris client.
	if _, err := conn.Write([]byte("GET /debug/vars HT")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		// The server may first write an error response; the connection
		// must still close promptly afterwards.
		if _, err = io.ReadAll(conn); err != nil {
			t.Fatalf("read after partial response: %v", err)
		}
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server left the half-open connection alive past ReadHeaderTimeout")
	}
}

// TestServeDebugShutdownDrains checks the graceful path: Shutdown
// waits for in-flight handlers, the serve goroutine exits, and new
// connections are refused afterwards.
func TestServeDebugShutdownDrains(t *testing.T) {
	s, err := ServeDebug("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr().String()
	// Exercise a request so the server has seen traffic.
	getBody(t, fmt.Sprintf("http://%s/debug/metrics", addr))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case <-s.done:
	default:
		t.Fatal("serve goroutine still running after Shutdown returned")
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("listener still accepting connections after Shutdown")
	}
}
