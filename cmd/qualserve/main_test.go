package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles as the smoke-test child: when re-executed with
// QUALSERVE_SMOKE_CHILD=1 the test binary runs the real main loop, so the
// smoke test exercises the actual flag parsing, signal handling, and
// graceful drain of the shipped binary without needing a separate build.
func TestMain(m *testing.M) {
	if os.Getenv("QUALSERVE_SMOKE_CHILD") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// startChild re-executes the test binary as qualserve on an ephemeral port
// with the given extra flags and returns the process and its bound address,
// parsed from the listening announcement. Cleanup kills the process if the
// test has not stopped it.
func startChild(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "QUALSERVE_SMOKE_CHILD=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	// The first stdout line announces the bound address.
	sc := bufio.NewScanner(stdout)
	addrCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "qualserve listening on "); ok {
				addrCh <- rest
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the listening announcement")
	}
	return nil, ""
}

// stopChild sends SIGTERM and requires a clean drained exit.
func stopChild(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("qualserve exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("qualserve did not exit within 15s of SIGTERM")
	}
}

// smokeDiagnostic is a /check or /check-batch diagnostic as the wire shows it.
type smokeDiagnostic struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Code string `json:"code"`
	Msg  string `json:"msg"`
}

// postSmoke posts body to path on addr, requires a 200 and decodes the answer
// into out.
func postSmoke(t *testing.T, addr, path string, body, out any) {
	t.Helper()
	data, _ := json.Marshal(body)
	resp, err := http.Post(fmt.Sprintf("http://%s%s", addr, path), "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s response: %v", path, err)
	}
}

// TestQualserveSmoke starts qualserve on an ephemeral port, checks a clean
// and a violating program through /check and through a one-file
// /check-batch, requires the two endpoints to report the same diagnostics,
// sends SIGTERM, and requires a clean drained exit.
func TestQualserveSmoke(t *testing.T) {
	cmd, addr := startChild(t, "-drain", "5s")

	for _, tc := range []struct {
		src      string
		warnings int
	}{
		{"int main() { int x = 1; return x; }", 0},
		{"int* nonnull g;\nvoid bad(int* p) { g = p; }", 1},
	} {
		var check struct {
			Warnings    int               `json:"warnings"`
			Diagnostics []smokeDiagnostic `json:"diagnostics"`
		}
		postSmoke(t, addr, "/check", map[string]any{"filename": "smoke.c", "source": tc.src}, &check)
		if check.Warnings != tc.warnings {
			t.Fatalf("smoke program %q reported %d warnings, want %d", tc.src, check.Warnings, tc.warnings)
		}
		var batch struct {
			Files []struct {
				Diagnostics []smokeDiagnostic `json:"diagnostics"`
			} `json:"files"`
		}
		postSmoke(t, addr, "/check-batch", map[string]any{
			"files": []map[string]string{{"filename": "smoke.c", "source": tc.src}},
		}, &batch)
		if len(batch.Files) != 1 || !reflect.DeepEqual(batch.Files[0].Diagnostics, check.Diagnostics) {
			t.Fatalf("/check and /check-batch disagree on %q:\n/check:       %+v\n/check-batch: %+v",
				tc.src, check.Diagnostics, batch.Files)
		}
	}

	stopChild(t, cmd)
}

// smokeObligation is the part of a /prove obligation a peer-served answer
// must reproduce exactly (cache and certificate provenance may differ).
type smokeObligation struct {
	Kind        string `json:"kind"`
	Description string `json:"description"`
	Valid       bool   `json:"valid"`
	Result      string `json:"result"`
	Reason      string `json:"reason"`
}

// proveSmoke runs POST /prove for one qualifier and returns its obligations.
func proveSmoke(t *testing.T, addr, qual string) []smokeObligation {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"qualifier": qual})
	resp, err := http.Post(fmt.Sprintf("http://%s/prove", addr), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /prove: %v", err)
	}
	defer resp.Body.Close()
	var out struct {
		AllSound bool `json:"all_sound"`
		Reports  []struct {
			Obligations []smokeObligation `json:"obligations"`
		} `json:"reports"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding /prove response: %v", err)
	}
	if resp.StatusCode != http.StatusOK || !out.AllSound {
		t.Fatalf("POST /prove %s on %s: status %d, all_sound %t", qual, addr, resp.StatusCode, out.AllSound)
	}
	var obs []smokeObligation
	for _, r := range out.Reports {
		obs = append(obs, r.Obligations...)
	}
	return obs
}

// TestQualservePeerSmoke drives -cache-peers through the real flag parsing:
// node B, cold and pointed at a warm node A, answers /prove with A's exact
// obligations from verified peer fetches, and a node asked for peers
// without -cert refuses to start.
func TestQualservePeerSmoke(t *testing.T) {
	cmdA, addrA := startChild(t, "-cert", "-cache-dir", t.TempDir())
	cmdB, addrB := startChild(t, "-cert", "-cache-peers", "http://"+addrA)

	obsA := proveSmoke(t, addrA, "pos")
	obsB := proveSmoke(t, addrB, "pos")
	if len(obsA) == 0 || !reflect.DeepEqual(obsA, obsB) {
		t.Fatalf("peer-served obligations diverge:\nA: %+v\nB: %+v", obsA, obsB)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addrB))
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var m struct {
		ProverCache struct {
			PeerHits    uint64 `json:"peer_hits"`
			PeerRejects uint64 `json:"peer_rejects"`
		} `json:"prover_cache"`
	}
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	if m.ProverCache.PeerHits == 0 || m.ProverCache.PeerRejects != 0 {
		t.Fatalf("node B prover_cache = %+v, want peer hits and no rejects", m.ProverCache)
	}
	stopChild(t, cmdB)
	stopChild(t, cmdA)

	noCert := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-cache-peers", "http://"+addrA)
	noCert.Env = append(os.Environ(), "QUALSERVE_SMOKE_CHILD=1")
	var exitErr *exec.ExitError
	if err := noCert.Run(); !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
		t.Fatalf("-cache-peers without -cert: %v, want exit status 2", err)
	}
}

// TestQualserveRestartServesProverFromDisk proves the standard library on a
// qualserve with -cache-dir, restarts it over the same directory and proves
// the library again: every obligation the restarted node looks up is served
// from disk, so its prover cache reports only hits and a hit rate of 1.
func TestQualserveRestartServesProverFromDisk(t *testing.T) {
	store := t.TempDir()
	cold, addr := startChild(t, "-cache-dir", store)
	want := proveSmoke(t, addr, "")
	stopChild(t, cold)

	warm, addr := startChild(t, "-cache-dir", store)
	if got := proveSmoke(t, addr, ""); len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("restarted node's obligations diverge:\ncold: %+v\nwarm: %+v", want, got)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var m struct {
		ProverCache struct {
			Hits     uint64  `json:"hits"`
			Misses   uint64  `json:"misses"`
			DiskHits uint64  `json:"disk_hits"`
			HitRate  float64 `json:"hit_rate"`
		} `json:"prover_cache"`
	}
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	pc := m.ProverCache
	if pc.HitRate != 1 || pc.Misses != 0 || pc.DiskHits == 0 || pc.Hits != pc.DiskHits {
		t.Fatalf("restarted node prover_cache = %+v, want every lookup a disk-served hit (hit_rate 1)", pc)
	}
	stopChild(t, warm)
}
