package main

import (
	"bytes"
	"os"
	"strconv"
	"time"
)

// rssSampler reads the process's resident set every 10 ms during the timed
// phase and keeps the peak of each 500 ms window. peak_rss_mb is the median
// of those window peaks: the single high-water mark of a run depends on
// where one collection cycle happened to fall (it moved by up to 26%
// between runs of broad-terms), while the typical window peak repeats.
type rssSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
}

const (
	rssTick   = 10 * time.Millisecond
	rssWindow = 50 // ticks per window
)

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssTick)
		defer t.Stop()
		var peak int64
		n := 0
		for {
			select {
			case <-s.stop:
				if len(s.peaks) == 0 && peak > 0 {
					s.peaks = append(s.peaks, float64(peak))
				}
				return
			case <-t.C:
			}
			if b := residentBytes(); b > peak {
				peak = b
			}
			if n++; n == rssWindow {
				s.peaks = append(s.peaks, float64(peak))
				peak, n = 0, 0
			}
		}
	}()
	return s
}

// finish stops sampling and returns the median window peak in bytes, 0
// when the resident set could not be read.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return median(s.peaks)
}

// residentBytes reads the current resident set from /proc/self/statm;
// 0 where that file does not exist.
func residentBytes() int64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(raw)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
