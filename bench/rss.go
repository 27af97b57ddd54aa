package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// rssEvery is how often an rssSampler reads the resident set size.
const rssEvery = 20 * time.Millisecond

// rssSampler records the highest resident set size a process reaches in
// each phase of a run. The median phase peak is steadier than the process's
// lifetime high-water mark, which one late garbage collection can set.
type rssSampler struct {
	pid  int
	once sync.Once
	stop chan struct{}
	done chan struct{}

	mu    sync.Mutex
	cur   float64 // MiB, highest reading in the current phase
	peaks []float64
	err   error
}

func startRSS(pid int) *rssSampler {
	s := &rssSampler{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	go s.run()
	return s
}

func (s *rssSampler) run() {
	defer close(s.done)
	t := time.NewTicker(rssEvery)
	defer t.Stop()
	for {
		s.sample()
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
	}
}

func (s *rssSampler) sample() {
	mb, err := residentMB(s.pid)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.err = err
		return
	}
	s.cur = max(s.cur, mb)
}

// mark ends the current phase, taking a last reading first.
func (s *rssSampler) mark() {
	s.sample()
	s.mu.Lock()
	s.peaks = append(s.peaks, s.cur)
	s.cur = 0
	s.mu.Unlock()
}

// close stops the sampler and returns the median phase peak in MiB. It may
// be called more than once.
func (s *rssSampler) close() (float64, error) {
	s.once.Do(func() { close(s.stop) })
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return 0, s.err
	}
	if len(s.peaks) == 0 {
		return 0, fmt.Errorf("no resident-set phases recorded")
	}
	return median(s.peaks), nil
}

// residentMB is a process's current resident set size (VmRSS) in MiB.
func residentMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmRSS %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}
