package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"holistic/internal/obs"
	"holistic/internal/server"
	"holistic/internal/server/api"
)

// target is one running windowd: a fresh process on loopback, or under
// -smoke an in-process handler. pid names the process whose CPU time and
// peak RSS the end-to-end metrics read (the harness itself under -smoke).
type target struct {
	url  string
	pid  int
	stop func() error
}

// launcher starts a target with extra windowd arguments.
type launcher func(args []string) (*target, error)

// processLauncher starts bin as a child process on a free loopback port,
// with GOMAXPROCS pinned to the CPU count and GOGC left at its default, and
// returns once the port accepts a connection: windowd listens only after its
// -load and -load-dir datasets registered.
func processLauncher(bin string) launcher {
	return func(args []string) (*target, error) {
		// Reserve a port by binding and releasing it; windowd takes it over.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := ln.Addr().String()
		if err := ln.Close(); err != nil {
			return nil, err
		}
		var log bytes.Buffer // windowd's stderr, shown when it fails to start
		cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
		cmd.Stderr = &log
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()
		stop := func() error {
			_ = cmd.Process.Signal(syscall.SIGTERM)
			select {
			case err := <-exited:
				return err
			case <-time.After(20 * time.Second):
				_ = cmd.Process.Kill()
				return fmt.Errorf("windowd did not drain; killed: %v", <-exited)
			}
		}
		for deadline := time.Now().Add(120 * time.Second); time.Now().Before(deadline); {
			if c, err := net.Dial("tcp", addr); err == nil {
				_ = c.Close() // only probing
				return &target{url: "http://" + addr, pid: cmd.Process.Pid, stop: stop}, nil
			}
			select {
			case err := <-exited:
				return nil, fmt.Errorf("windowd exited before listening: %v\n%s", err, log.String())
			case <-time.After(5 * time.Millisecond):
			}
		}
		return nil, errors.Join(errors.New("windowd did not listen within 120 s"), stop())
	}
}

// inProcessLauncher serves server.New(...).Handler() from this process; it
// understands the windowd flags the workloads state.
func inProcessLauncher() launcher {
	return func(args []string) (*target, error) {
		cfg := server.Config{CacheBytes: 1 << 30, CompactInterval: 2 * time.Second,
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
		var loads, loadDirs []string
		for i := 0; i+1 < len(args); i += 2 {
			var err error
			switch args[i] {
			case "-cache-bytes":
				cfg.CacheBytes, err = strconv.ParseInt(args[i+1], 10, 64)
			case "-compact-rows":
				cfg.CompactRows, err = strconv.Atoi(args[i+1])
			case "-compact-interval":
				cfg.CompactInterval, err = time.ParseDuration(args[i+1])
			case "-load":
				loads = append(loads, args[i+1])
			case "-load-dir":
				loadDirs = append(loadDirs, args[i+1])
			default:
				err = fmt.Errorf("in-process windowd: unknown flag %s", args[i])
			}
			if err != nil {
				return nil, err
			}
		}
		srv := server.New(cfg)
		for _, l := range loads {
			name, path, _ := strings.Cut(l, "=")
			if _, err := srv.RegisterPath(name, path); err != nil {
				return nil, err
			}
		}
		for _, l := range loadDirs {
			name, dir, _ := strings.Cut(l, "=")
			if _, err := srv.RegisterDir(name, dir); err != nil {
				return nil, err
			}
		}
		hs := httptest.NewServer(srv.Handler())
		return &target{url: hs.URL, pid: os.Getpid(), stop: func() error {
			hs.Close()
			srv.Close()
			return nil
		}}, nil
	}
}

// client is the one closed-loop client: one connection, one request in
// flight, response bodies read into one reused buffer.
type client struct {
	api  api.Client // decoding calls, for the untimed passes
	http *http.Client
	buf  []byte
}

func newClient(t *target) *client {
	hc := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   120 * time.Second,
	}
	return &client{api: api.Client{BaseURL: t.url, HTTPClient: hc}, http: hc}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends body and reads the whole response into the reused buffer. The
// returned slice is valid until the next call. The duration runs from before
// the request is written until the last response byte is read.
func (c *client) post(path string, body []byte) ([]byte, time.Duration, error) {
	start := time.Now()
	resp, err := c.http.Post(c.api.BaseURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	n := 0
	for {
		if n == len(c.buf) {
			c.buf = append(c.buf, make([]byte, max(len(c.buf), 1<<20))...)
		}
		m, err := resp.Body.Read(c.buf[n:])
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, err
		}
	}
	d := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		return nil, d, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(c.buf[:min(n, 300)]))
	}
	return c.buf[:n], d, nil
}

// scrape fetches and parses /v1/metrics.
func (c *client) scrape() (*obs.ParsedMetrics, error) {
	text, err := c.api.Metrics(context.Background())
	if err != nil {
		return nil, err
	}
	return obs.ParseText(text)
}

// familySum adds up every series of a metric family, across its labels.
func familySum(p *obs.ParsedMetrics, family string) float64 {
	var sum float64
	for id, v := range p.Samples {
		if id == family || strings.HasPrefix(id, family+"{") {
			sum += v
		}
	}
	return sum
}

// procCPU reads a process's user plus system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times: 100 on every
// Linux platform Go supports.
const clockTick = 10 * time.Millisecond

func parseProcStat(stat string) (time.Duration, error) {
	// The command name (field 2) is parenthesised and may hold spaces;
	// fields count from after its closing parenthesis, so utime and stime
	// (fields 14 and 15) are at 11 and 12 of the remainder.
	i := strings.LastIndexByte(stat, ')')
	f := strings.Fields(stat[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat line %q", stat)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("malformed /proc stat times: %w", err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procPeakRSS reads a process's peak resident set size (VmHWM) in bytes.
func procPeakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM line %q", line)
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}
