// Package cmd holds no code of its own: this file holds the tests that
// build the serving binaries and run them as real processes.
package cmd

import (
	"bytes"
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// output collects a child's stdout and stderr; the test reads it while
// the child is still writing.
type output struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.Write(p)
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the binary binds it, so another process could take the
// port in between; on a test box that window is not worth a protocol
// for handing listeners to children.
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port
}

// command runs a child at the lowest priority where nice(1) exists.
// `go test ./...` runs this package next to others whose assertions
// are calibrated on the wall clock (benchmark/'s span-coverage check
// failed 2 runs in 20 with the smoke test beside it, 0 in 20 without),
// and a build plus five processes is two CPU-seconds in one burst;
// these tests assert on outcomes, not on time, and can afford to wait.
func command(name string, args ...string) *exec.Cmd {
	if nice, err := exec.LookPath("nice"); err == nil {
		return exec.Command(nice, append([]string{"-n", "19", name}, args...)...)
	}
	return exec.Command(name, args...)
}

// build compiles the named binaries into a temporary directory and
// returns it. The tests that call it are skipped under -short.
func build(t *testing.T, names ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the serving binaries; skipped in -short mode")
	}
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "./"+n)
	}
	if out, err := command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestServingBinariesSmoke builds diffserve-lb, -worker, -controller
// and -client, starts one LB, two workers and the controller on free
// loopback ports with no transport or codec flag — so whatever wire
// the binaries speak by default is the wire under test — and replays a
// few trace-seconds through them: the client must exit 0 having
// received a result for every query it submitted. At this size the
// controller's plan puts both workers on the light model with a
// threshold above zero, so deferred queries wait in a heavy queue no
// worker pulls from: they resolve when the controller's stats poll
// sheds them. The controller's -workers list carries a blank after a
// comma and a trailing comma, and must still count two workers.
func TestServingBinariesSmoke(t *testing.T) {
	bin := build(t, "diffserve-lb", "diffserve-worker", "diffserve-controller", "diffserve-client")

	const timescale = "0.01" // 100x real time: 6 trace-seconds in 60 ms
	start := func(name string, args ...string) *output {
		t.Helper()
		out := new(output)
		cmd := command(filepath.Join(bin, name), append(args, "-timescale", timescale)...)
		cmd.Stdout, cmd.Stderr = out, out
		if err := cmd.Start(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
			if t.Failed() {
				t.Logf("%s output:\n%s", name, out.String())
			}
		})
		return out
	}
	listening := func(addr string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			conn, err := net.DialTimeout("tcp", addr, time.Second)
			if err == nil {
				conn.Close()
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("nothing listening on %s: %v", addr, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	lbAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	_, lbPort, _ := net.SplitHostPort(lbAddr)
	start("diffserve-lb", "-port", lbPort)
	listening(lbAddr)
	workers := make([]string, 2)
	for i := range workers {
		workers[i] = fmt.Sprintf("127.0.0.1:%d", freePort(t))
		_, port, _ := net.SplitHostPort(workers[i])
		start("diffserve-worker", "-port", port, "-id", fmt.Sprint(i), "-lb", lbAddr, "-fast-load")
	}
	for _, w := range workers {
		listening(w)
	}
	workerList := strings.Join(workers, ", ") + ","
	ctrl := start("diffserve-controller", "-lb", lbAddr, "-workers", workerList)

	client := command(filepath.Join(bin, "diffserve-client"),
		"-lb", lbAddr, "-min", "2", "-max", "6", "-duration", "6", "-timescale", timescale)
	out, err := client.CombinedOutput()
	if err != nil {
		t.Fatalf("diffserve-client: %v\n%s", err, out)
	}
	queries := regexp.MustCompile(`(?m)^queries\s+(\d+)$`).FindSubmatch(out)
	if queries == nil || string(queries[1]) == "0" {
		t.Fatalf("client replayed no queries:\n%s", out)
	}
	if !regexp.MustCompile(`(?m)^unresolved\s+0$`).Match(out) {
		t.Errorf("client did not receive a result for every query it submitted:\n%s", out)
	}
	if banner := ctrl.String(); !strings.Contains(banner, "diffserve-controller: 2 workers,") {
		t.Errorf("controller did not count 2 workers in -workers %q:\n%s", workerList, banner)
	}
}

// TestLBRejectsUnknownMode: a mistyped -mode must stop diffserve-lb and
// name the valid modes, not fall back to cascade routing.
func TestLBRejectsUnknownMode(t *testing.T) {
	bin := build(t, "diffserve-lb")
	out := new(output)
	lb := command(filepath.Join(bin, "diffserve-lb"), "-port", fmt.Sprint(freePort(t)), "-mode", "bogus")
	lb.Stderr = out
	if err := lb.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- lb.Wait() }()
	select {
	case err := <-exited:
		if err == nil {
			t.Fatal("diffserve-lb exited 0 with -mode bogus")
		}
	case <-time.After(10 * time.Second):
		lb.Process.Kill()
		<-exited
		t.Fatalf("diffserve-lb still running 10 s after start with -mode bogus:\n%s", out)
	}
	for _, m := range []string{"cascade", "all-light", "all-heavy", "random-split"} {
		if !strings.Contains(out.String(), m) {
			t.Errorf("diffserve-lb's error does not name mode %s:\n%s", m, out)
		}
	}
}
