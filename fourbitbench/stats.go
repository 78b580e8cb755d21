package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of vs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of sorted by the nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// latency summarises a latency sample: the median and the tail percentile,
// where the tail is the highest percentile with at least ten samples
// beyond it (p99 needs 1000 samples, p90 100, and so on).
type latency struct {
	N    int
	P50  float64
	Tail float64
	// TailQ is the tail's quantile (0.99 for p99), 0 when fewer than 11
	// samples leave no percentile with ten beyond it.
	TailQ float64
}

// summarize computes the latency summary of durations in milliseconds.
func summarize(ms []float64) latency {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	l := latency{N: len(s), P50: quantile(s, 0.5)}
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.5} {
		if float64(len(s))*(1-q) >= 10 {
			l.Tail, l.TailQ = quantile(s, q), q
			break
		}
	}
	return l
}

func (l latency) String() string {
	if l.TailQ == 0 {
		return fmt.Sprintf("p50 %.4f ms (n=%d, too few samples for a tail)", l.P50, l.N)
	}
	return fmt.Sprintf("p50 %.4f ms, p%s %.4f ms (n=%d)", l.P50,
		strconv.FormatFloat(l.TailQ*100, 'f', -1, 64), l.Tail, l.N)
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resetPeakRSS returns the free heap to the OS and resets the process's
// peak resident set size to its current one, so VmHWM covers only what
// runs after it.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size (VmHWM) from
// /proc/self/status. Every benchmark run is its own process, so no
// workload inherits another's peak.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
