package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail percentile resting on fewer is noise, so pct refuses it.
const minBeyond = 10

// nearestRank is the 0-based index of the p-th percentile among n sorted
// samples.
func nearestRank(n int, p float64) int {
	return max(int(math.Ceil(float64(n)*p/100))-1, 0)
}

// checkTail refuses a p-th percentile of n samples with fewer than
// minBeyond samples above it.
func checkTail(n int, p float64) error {
	if beyond := n - 1 - nearestRank(n, p); n == 0 || beyond < minBeyond {
		return fmt.Errorf("p%g of %d samples has %d samples beyond it, need %d", p, n, max(beyond, 0), minBeyond)
	}
	return nil
}

// pct returns the p-th percentile (nearest rank) of xs, which it sorts in
// place, together with the sample count. It refuses a percentile with fewer
// than minBeyond samples above it.
func pct(xs []float64, p float64) (float64, int, error) {
	if err := checkTail(len(xs), p); err != nil {
		return 0, len(xs), err
	}
	slices.Sort(xs)
	return xs[nearestRank(len(xs), p)], len(xs), nil
}

// median returns the median of xs (mean of the middle pair for even
// counts), leaving xs untouched.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostFacts describe the machine a record was measured on; records from
// different hosts are not comparable.
type hostFacts struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Link       string `json:"link,omitempty"`
}

func host(link string) hostFacts {
	return hostFacts{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Link:       link,
	}
}

// cpuModel reads the processor model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
