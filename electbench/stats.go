package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is noise.
const minBeyond = 10

// tailLadder lists the percentiles the benchmark may report, ascending.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// rank returns the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	// The epsilon keeps p·n/100 = 9990.000000000002 (p = 99.9) at rank 9990.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// supported reports whether percentile p of n samples has at least
// minBeyond samples ranked above it.
func supported(p float64, n int) bool {
	return n > 0 && n-rank(p, n) >= minBeyond
}

// highestTail returns the highest percentile on tailLadder that n samples
// support, and false when not even the median is supported.
func highestTail(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if supported(p, n) {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank percentile p of the samples, which it
// sorts in place.
func percentile(samples []float64, p float64) float64 {
	sort.Float64s(samples)
	return samples[rank(p, len(samples))-1]
}

// host identifies the machine a recording was made on. Timings from
// different hosts are not comparable.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func thisHost() host {
	return host{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// mismatches lists the fields in which two hosts differ.
func (h host) mismatches(o host) []string {
	var out []string
	add := func(field string, a, b any) {
		if a != b {
			out = append(out, fmt.Sprintf("%s %v vs %v", field, a, b))
		}
	}
	add("cpu_model", h.CPUModel, o.CPUModel)
	add("nproc", h.NumCPU, o.NumCPU)
	add("gomaxprocs", h.GOMAXPROCS, o.GOMAXPROCS)
	add("go_version", h.GoVersion, o.GoVersion)
	add("goos", h.GOOS, o.GOOS)
	add("goarch", h.GOARCH, o.GOARCH)
	return out
}

func (h host) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s",
		h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH)
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	v, err := procField("/proc/cpuinfo", "model name")
	if err != nil || v == "" {
		return "unknown"
	}
	return v
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	v, err := procField("/proc/self/status", "VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}

// procField returns the trimmed value of the first "key: value" line of a
// /proc file.
func procField(path, key string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer func() { _ = f.Close() }() // read only
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("reading %s: %w", path, err)
	}
	return "", fmt.Errorf("%s: no %q line", path, key)
}
