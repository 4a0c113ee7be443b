package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// machine is recorded with every result, so a bandwidth-bound number
// such as nn.predict.gbps_computed can be read against what the
// machine can move.
type machine struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	LLCBytes   int64   `json:"llc_bytes"`
	TriadBytes int64   `json:"triad_bytes"`
	TriadGBps  float64 `json:"machine.triad_gbps"`
}

// defaultLLC is assumed when sysfs does not report a last-level cache.
const defaultLLC = 32 << 20

func probeMachine() machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		LLCBytes:   llcBytes(),
	}
	m.TriadBytes, m.TriadGBps = triad(m.LLCBytes)
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	s := bufio.NewScanner(f)
	for s.Scan() {
		if k, v, ok := strings.Cut(s.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// llcBytes reads the largest cache size cpu0 reports.
func llcBytes() int64 {
	var best int64
	for i := 0; i < 8; i++ {
		data, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/size")
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(data))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > best {
			best = n * mult
		}
	}
	if best == 0 {
		return defaultLLC
	}
	return best
}

// triad runs a single-threaded STREAM triad a[i] = b[i] + s*c[i] over
// three arrays whose combined size is 4x the LLC, and returns that size
// and the best of five passes in GB/s (24 bytes moved per element).
func triad(llc int64) (int64, float64) {
	n := int(4 * llc / 24)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	best := time.Duration(1<<63 - 1)
	for pass := 0; pass < 5; pass++ {
		start := time.Now()
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	if a[n-1] != 7 {
		return 0, 0
	}
	return int64(24 * n), float64(24*n) / best.Seconds() / 1e9
}

// peakRSSMB is the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
