package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostLine is printed with every result: timings from a 2-core shared
// sandbox and from a 32-core workstation are different experiments.
func hostLine() string {
	cpu := "unknown"
	if v, ok := procField("/proc/cpuinfo", "model name"); ok {
		cpu = v
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu)
}

// procField returns the value of the first "key : value" line of a /proc
// text file.
func procField(path, key string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), true
		}
	}
	return "", false
}

// statusKB reads a "VmHWM:   123 kB"-style field of /proc/self/status; 0
// where /proc is unavailable.
func statusKB(key string) float64 {
	v, ok := procField("/proc/self/status", key)
	if !ok {
		return 0
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0
	}
	return kb
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 { return statusKB("VmHWM") / 1024 }

// liveHeapKB is the heap still reachable after a forced collection.
func liveHeapKB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1024
}

// memDelta is what a phase allocated, from runtime.MemStats.
type memDelta struct {
	allocBytes uint64
	mallocs    uint64
	gcPauseNs  uint64
}

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs, gcPauseNs: ms.PauseTotalNs}
}

func (a memDelta) since(b memDelta) memDelta {
	return memDelta{
		allocBytes: a.allocBytes - b.allocBytes,
		mallocs:    a.mallocs - b.mallocs,
		gcPauseNs:  a.gcPauseNs - b.gcPauseNs,
	}
}
