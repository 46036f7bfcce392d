package main

import (
	"bufio"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"tcpdemux/internal/server"
)

// freeAddr reserves a loopback port by binding and releasing it; run()
// needs a concrete address because it does not report the bound port.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestLiveDemuxdSmoke boots the real daemon entry point (flag wiring
// aside), serves a small verified load, and drains it through the stop
// channel the way a SIGTERM would.
func TestLiveDemuxdSmoke(t *testing.T) {
	addr := freeAddr(t)
	metrics := freeAddr(t)
	stop := make(chan struct{})
	errC := make(chan error, 1)
	go func() {
		errC <- run(addr, "flat-hopscotch", "multiplicative", 256, 2, 42, metrics, 10*time.Second, stop)
	}()

	rep, err := server.RunLoad(server.LoadConfig{
		Addr:        addr,
		Conns:       16,
		TxnsPerConn: 4,
		Reopens:     1,
		Seed:        5,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.Failures != 0 {
		t.Fatalf("%d failures (first: %s)", rep.Failures, rep.FirstError)
	}

	close(stop)
	select {
	case err := <-errC:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not drain after stop")
	}
}

// TestMain lets the test binary stand in for the demuxd executable: with
// DEMUXD_AS_MAIN=1 in its environment it runs main on its command line,
// so signal tests exercise the real process entry point.
func TestMain(m *testing.M) {
	if os.Getenv("DEMUXD_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestLiveSIGTERMAtReadyDrains sends SIGTERM the moment demuxd prints
// its first listen line. The handler must already be installed by then:
// demuxd exits 0 after draining and prints its conservation ledger.
func TestLiveSIGTERMAtReadyDrains(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0", "-shards", "2")
	cmd.Env = append(os.Environ(), "DEMUXD_AS_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
		if len(lines) == 1 {
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("demuxd: %v (want exit 0)\nstdout:\n%s\nstderr:\n%s", err, strings.Join(lines, "\n"), stderr.String())
	}
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "demuxd: serving TPC/A on ") {
		t.Fatalf("first line %q, want the listen line", lines)
	}
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "demuxd: drained — accepted=0 served=0 ") {
		t.Fatalf("last line %q, want the drain ledger", last)
	}
}
