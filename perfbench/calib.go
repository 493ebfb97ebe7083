package main

import (
	"crypto/sha256"
	"encoding/json"
	"sort"
	"strconv"
	"time"
)

// Host-speed reference. The machine this benchmark runs on is shared: its
// speed drifts by 20% and more within minutes, as other tenants load it, and
// a whole run can land in a slow stretch. So the client interleaves a fixed
// reference kernel with its requests and reports latencies scaled to a host
// on which that kernel takes refNominal. The kernel uses only the standard
// library and fixed inputs, so no change to the repository's code moves it;
// like a request it allocates, encodes JSON, hashes strings into a map and
// sorts, which is what made it follow the service's slowdowns (a kernel that
// only chased pointers and streamed memory followed them at a third of
// their size).
const (
	// refNominal is the kernel time the scaled latencies assume: about its
	// median within a window on the shared 2-vCPU, 2 GHz x86-64 VM the
	// benchmark was tuned on, so scaled figures read close to measured ones.
	refNominal = 400 * time.Microsecond
	// refEvery is the clock time between two kernel runs of the window.
	refEvery = 25 * time.Millisecond
	// refSlice is the stretch of the window whose kernel runs scale the
	// requests that start in it; a slice with fewer than refMinRuns kernel
	// runs uses the whole window's median.
	refSlice   = time.Second
	refMinRuns = 5
	// setupRefRuns kernel runs precede each set-up and scale it.
	setupRefRuns = 15
)

type refRecord struct {
	Name  string
	Vals  []int
	Score float64
}

var refInput = func() []refRecord {
	out := make([]refRecord, 24)
	for i := range out {
		out[i] = refRecord{Name: "rec" + strconv.Itoa(i), Score: float64(i) * 1.5}
		for j := 0; j < 16; j++ {
			out[i].Vals = append(out[i].Vals, (i*7919+j*104729)%1000)
		}
	}
	return out
}()

// refSink keeps the kernel's result live.
var refSink int

// refKernel is one run of the reference kernel.
func refKernel() {
	m := make(map[string]int, 256)
	for i := 0; i < 768; i++ {
		m["k"+strconv.Itoa(i%256)] += i
	}
	v := make([]int, 1536)
	for i := range v {
		v[i] = (i * 2654435761) % 100003
	}
	sort.Ints(v)
	b, _ := json.Marshal(refInput)
	var back []refRecord
	_ = json.Unmarshal(b, &back)
	h := sha256.Sum256(b)
	refSink += len(m) + v[100] + len(back) + int(h[0])
}

// timeRef runs the kernel once and returns its wall time in nanoseconds.
func timeRef(clock func() int64) int64 {
	t0 := clock()
	refKernel()
	return clock() - t0
}

// refMedian runs the kernel n times and returns the median time.
func refMedian(n int, clock func() int64) float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(timeRef(clock))
	}
	return medianFloat(v)
}

// refRun is one timed kernel run of a window.
type refRun struct {
	at, ns int64 // start, relative to the window's start; duration
}

// hostScale maps a time of the window to the factor that scales a duration
// measured then to the reference host: refNominal over the median kernel
// time of the slice it falls in.
type hostScale struct {
	slices []float64 // per refSlice of the window
	median float64   // kernel median over the whole window, ns
}

func newHostScale(runs []refRun) hostScale {
	var hs hostScale
	if len(runs) == 0 {
		return hs
	}
	all := make([]float64, len(runs))
	var bySlice [][]float64
	for i, r := range runs {
		all[i] = float64(r.ns)
		k := int(r.at / int64(refSlice))
		for len(bySlice) <= k {
			bySlice = append(bySlice, nil)
		}
		bySlice[k] = append(bySlice[k], float64(r.ns))
	}
	hs.median = medianFloat(all)
	hs.slices = make([]float64, len(bySlice))
	for k, v := range bySlice {
		m := hs.median
		if len(v) >= refMinRuns {
			m = medianFloat(v)
		}
		hs.slices[k] = float64(refNominal) / m
	}
	return hs
}

// at is the scale factor at time t of the window (1 without kernel runs).
func (hs hostScale) at(t int64) float64 {
	if hs.median == 0 {
		return 1
	}
	k := int(t / int64(refSlice))
	if k < 0 || k >= len(hs.slices) {
		return float64(refNominal) / hs.median
	}
	return hs.slices[k]
}

// scaled is ns, measured at time t of the window, on the reference host.
func (hs hostScale) scaled(ns, t int64) int64 {
	return int64(float64(ns)*hs.at(t) + 0.5)
}
