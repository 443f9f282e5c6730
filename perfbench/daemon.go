package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running streamtokd process.
type daemon struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	ready time.Duration
	log   *os.File
	exit  chan error
}

// startDaemon execs streamtokd with args on a free loopback port and
// waits until /healthz answers 200. ready is the time from exec to that
// answer: the daemon's set-up time, with everything it preloads.
func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	d := &daemon{base: "http://" + addr, log: logf, exit: make(chan error, 1)}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	track(d.cmd.Process)
	go func() {
		err := d.cmd.Wait()
		untrack(d.cmd.Process)
		d.exit <- err
	}()
	for {
		select {
		case err := <-d.exit:
			d.exit <- err
			d.stop()
			return nil, fmt.Errorf("streamtokd exited during start-up (%v); log in %s", err, logPath)
		default:
		}
		if resp, err := hc.Get(d.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Since(t0)
				return d, nil
			}
		}
		if time.Since(t0) > 60*time.Second {
			d.stop()
			return nil, fmt.Errorf("streamtokd not healthy after 60s; log in %s", logPath)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop drains the daemon with SIGTERM, kills it if the drain hangs, and
// waits until the process has exited.
func (d *daemon) stop() error {
	defer d.log.Close()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.exit:
		return err
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		return fmt.Errorf("streamtokd ignored SIGTERM: %v", <-d.exit)
	}
}

// serverMetrics is the part of streamtokd's /metrics document the
// benchmark reads.
type serverMetrics struct {
	OK        uint64 `json:"ok"`
	Shed      uint64 `json:"shed"`
	Rejected  uint64 `json:"rejected"`
	Errors    uint64 `json:"errors"`
	TokensOut uint64 `json:"tokens_out"`
	BytesIn   uint64 `json:"bytes_in"`
	Scheduler struct {
		Dispatched uint64 `json:"dispatched"`
		Stolen     uint64 `json:"stolen"`
	} `json:"scheduler"`
	Registry struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"registry"`
	Grammars []struct {
		Name  string      `json:"name"`
		Kind  string      `json:"kind"`
		Stats engineStats `json:"stats"`
	} `json:"grammars"`
}

// engineStats is the subset of streamtok.Stats the ratio metrics use,
// in its JSON rendering.
type engineStats struct {
	BytesIn           uint64 `json:"bytes_in"`
	TokensOut         uint64 `json:"tokens_out"`
	AccelAttempts     uint64 `json:"accel_attempts"`
	AccelSkippedBytes uint64 `json:"accel_skipped_bytes"`
	FusedFallbacks    uint64 `json:"fused_fallbacks"`
	CarryMax          uint64 `json:"carry_max"`
	BPEPieces         uint64 `json:"bpe_pieces"`
	BPEFallbacks      uint64 `json:"bpe_fallbacks"`
	BPECacheHits      uint64 `json:"bpe_cache_hits"`
	BPECacheMisses    uint64 `json:"bpe_cache_misses"`
	BPECacheEvictions uint64 `json:"bpe_cache_evictions"`
	// VocabBytes is BytesIn of vocabulary entries alone, the base of the
	// per-MiB BPE ratios.
	VocabBytes uint64 `json:"vocab_bytes"`
}

func (d *daemon) metrics() (*serverMetrics, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m serverMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return &m, nil
}

// engineTotal sums the engine counters of every resident entry.
func (m *serverMetrics) engineTotal() engineStats {
	ss := make([]engineStats, len(m.Grammars))
	for i, g := range m.Grammars {
		ss[i] = g.Stats
		if g.Kind == "vocab" {
			ss[i].VocabBytes = g.Stats.BytesIn
		}
	}
	return sumStats(ss)
}

// sumStats adds up counter blocks; CarryMax is the largest high-water
// mark.
func sumStats(ss []engineStats) engineStats {
	var t engineStats
	for _, s := range ss {
		t.BytesIn += s.BytesIn
		t.TokensOut += s.TokensOut
		t.AccelAttempts += s.AccelAttempts
		t.AccelSkippedBytes += s.AccelSkippedBytes
		t.FusedFallbacks += s.FusedFallbacks
		t.CarryMax = max(t.CarryMax, s.CarryMax)
		t.BPEPieces += s.BPEPieces
		t.BPEFallbacks += s.BPEFallbacks
		t.BPECacheHits += s.BPECacheHits
		t.BPECacheMisses += s.BPECacheMisses
		t.BPECacheEvictions += s.BPECacheEvictions
		t.VocabBytes += s.VocabBytes
	}
	return t
}

// sub returns the counter deltas a-b (CarryMax is kept from a: a
// high-water mark has no delta).
func (a engineStats) sub(b engineStats) engineStats {
	return engineStats{
		BytesIn:           a.BytesIn - b.BytesIn,
		TokensOut:         a.TokensOut - b.TokensOut,
		AccelAttempts:     a.AccelAttempts - b.AccelAttempts,
		AccelSkippedBytes: a.AccelSkippedBytes - b.AccelSkippedBytes,
		FusedFallbacks:    a.FusedFallbacks - b.FusedFallbacks,
		CarryMax:          a.CarryMax,
		BPEPieces:         a.BPEPieces - b.BPEPieces,
		BPEFallbacks:      a.BPEFallbacks - b.BPEFallbacks,
		BPECacheHits:      a.BPECacheHits - b.BPECacheHits,
		BPECacheMisses:    a.BPECacheMisses - b.BPECacheMisses,
		BPECacheEvictions: a.BPECacheEvictions - b.BPECacheEvictions,
		VocabBytes:        a.VocabBytes - b.VocabBytes,
	}
}

// procStatus reads a kB field (VmHWM, VmRSS) of /proc/<pid>/status in MB.
func procStatus(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// procCPU returns the user+system CPU time a process has used.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// clockTicks is USER_HZ, 100 on every Linux the benchmark targets.
const clockTicks = 100
