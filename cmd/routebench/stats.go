package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile reads the q-th value of an ascending slice (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime is the time the machine's CPUs were ready to run but the
// hypervisor ran something else, summed over CPUs (the steal column of
// /proc/stat, in 10 ms ticks). It reads 0 where there is no such file.
func stealTime() time.Duration {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(blob), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// rtSample is a runtime/metrics reading taken at a phase boundary.
type rtSample struct {
	at     time.Time
	cpu    time.Duration
	steal  time.Duration
	allocs uint64
	gcs    uint64
	pauses *metrics.Float64Histogram
}

var rtNames = []string{"/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles", "/sched/pauses/total/gc:seconds"}

func sampleRuntime() rtSample {
	ms := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s := rtSample{at: time.Now(), cpu: cpuTime(), steal: stealTime()}
	if ms[0].Value.Kind() == metrics.KindUint64 {
		s.allocs = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindUint64 {
		s.gcs = ms[1].Value.Uint64()
	}
	if ms[2].Value.Kind() == metrics.KindFloat64Histogram {
		s.pauses = ms[2].Value.Float64Histogram()
	}
	return s
}

// busyShare is the share of the machine's cores the process kept busy
// between two samples.
func busyShare(a, b rtSample) float64 {
	wall := b.at.Sub(a.at)
	if wall <= 0 {
		return 0
	}
	return float64(b.cpu-a.cpu) / (float64(wall) * float64(runtime.GOMAXPROCS(0)))
}

// stealShare is the share of the machine's CPU time the hypervisor
// took between two samples.
func stealShare(a, b rtSample) float64 {
	wall := b.at.Sub(a.at)
	if wall <= 0 {
		return 0
	}
	return float64(b.steal-a.steal) / (float64(wall) * float64(runtime.NumCPU()))
}

// maxSteal is the share of the machine's CPU time the hypervisor may
// take during a timed slice or swap for it to count as steady. Steal
// comes from other guests on the host, not from the program, and a few
// percent of it puts stalls of tens of milliseconds into a slice.
const maxSteal = 0.02

// steady returns the indexes of the samples, given their steal shares,
// that the end-to-end metrics use: those with at most maxSteal or, when
// fewer than half are, the least-stolen half.
func steady(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	n := 0
	for n < len(idx) && steal[idx[n]] <= maxSteal {
		n++
	}
	return idx[:max(n, (len(idx)+1)/2)]
}

// segment pools the slices of the fixed-rate segment: their samples
// and counts, their windows, and the runtime deltas across them.
type segment struct {
	phaseResult
	slices       []*phaseResult
	windows      [][2]time.Time
	wall         time.Duration
	allocs, gcs  uint64
	pauses       []uint64 // GC pause histogram counts
	pauseBuckets []float64
}

// steadySlices pools the latencies, answers and CPU time of the steady
// slices.
func (sg *segment) steadySlices() *phaseResult {
	steal := make([]float64, len(sg.slices))
	for i, ph := range sg.slices {
		steal[i] = ph.steal()
	}
	res := &phaseResult{}
	for _, i := range steady(steal) {
		ph := sg.slices[i]
		res.lats = append(res.lats, ph.lats...)
		res.answered += ph.answered
		res.cpu += ph.cpu
	}
	sort.Float64s(res.lats)
	return res
}

// stealShare is the median steal share of the slices.
func (sg *segment) stealShare() float64 {
	var steal []float64
	for _, ph := range sg.slices {
		steal = append(steal, ph.steal())
	}
	return median(steal)
}

func (sg *segment) add(ph *phaseResult) {
	sg.slices = append(sg.slices, ph)
	sg.offered += ph.offered
	sg.completed += ph.completed
	sg.failed += ph.failed
	sg.refused += ph.refused
	sg.mismatched += ph.mismatched
	sg.hops += ph.hops
	sg.lats = append(sg.lats, ph.lats...)
	sg.late = append(sg.late, ph.late...)
	sg.waits = append(sg.waits, ph.waits...)
	sort.Float64s(sg.lats)
	sort.Float64s(sg.late)
	sort.Float64s(sg.waits)
	sg.windows = append(sg.windows, [2]time.Time{ph.from, ph.to})
	a, b := ph.rtBefore, ph.rtAfter
	sg.wall += b.at.Sub(a.at)
	sg.allocs += b.allocs - a.allocs
	sg.gcs += b.gcs - a.gcs
	if a.pauses != nil && b.pauses != nil && len(a.pauses.Counts) == len(b.pauses.Counts) {
		if sg.pauses == nil {
			sg.pauses = make([]uint64, len(b.pauses.Counts))
			sg.pauseBuckets = b.pauses.Buckets
		}
		for i := range sg.pauses {
			sg.pauses[i] += b.pauses.Counts[i] - a.pauses.Counts[i]
		}
	}
}

// pauseP99 is the 99th percentile GC pause in µs, read off the
// histogram bucket holding it (its upper bound).
func (sg *segment) pauseP99() float64 {
	var total uint64
	for _, c := range sg.pauses {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range sg.pauses {
		seen += c
		if seen >= want {
			hi := sg.pauseBuckets[i+1]
			if math.IsInf(hi, 1) {
				hi = sg.pauseBuckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// liveHeapMB collects garbage and reports the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
