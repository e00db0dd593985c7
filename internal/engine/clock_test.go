package engine

import (
	"reflect"
	"testing"
	"time"
)

// stubClock advances by a fixed step at every read, so a timed run — one
// read at start, one at stop — measures exactly one step.
type stubClock struct {
	t    time.Time
	step time.Duration
}

func (s *stubClock) now() time.Time {
	s.t = s.t.Add(s.step)
	return s.t
}

// TestUDFClockSampling drives the helper over a record stream cut into
// batches the way the claim loop cuts it. With a uniform run cost the scaled
// total is exact, and because the sample is keyed by record index the timed
// records are the same at every batch size.
func TestUDFClockSampling(t *testing.T) {
	const n, step = 1000, 7 * time.Microsecond
	var want []int
	for i := 0; i < n; i += udfClockStride {
		want = append(want, i)
	}
	for _, bsize := range []int{1, 7, 256} {
		opts := Options{BatchSize: bsize}
		stub := &stubClock{step: step}
		c := udfClock{now: stub.now}
		var timed []int
		for b := 0; b < opts.batches(n); b++ {
			lo, hi := opts.span(b, n)
			for i := lo; i < hi; i++ {
				before := c.timed
				c.start(i)
				c.stop()
				if c.timed != before {
					timed = append(timed, i)
				}
			}
		}
		if !reflect.DeepEqual(timed, want) {
			t.Errorf("BatchSize %d: timed records %v, want every multiple of %d below %d", bsize, timed, udfClockStride, n)
		}
		if got := c.total(0); got != n*step {
			t.Errorf("BatchSize %d: total %v over %d uniform runs of %v, want %v", bsize, got, n, step, n*step)
		}
	}
}

// TestUDFClockNothingTimed: runs on unsampled records only, or no runs at
// all, estimate zero rather than dividing by zero.
func TestUDFClockNothingTimed(t *testing.T) {
	stub := &stubClock{step: time.Microsecond}
	c := udfClock{now: stub.now}
	if got := c.total(0); got != 0 {
		t.Errorf("total with no runs = %v", got)
	}
	for i := 1; i < udfClockStride; i++ {
		c.start(i)
		c.stop()
	}
	if got := c.total(0); c.timed != 0 || got != 0 {
		t.Errorf("%d runs on unsampled records: %d timed, total %v", c.runs, c.timed, got)
	}
}

// TestUDFClockClampsToWallTime: a stall inside a timed run is scaled with
// the sample, but the total never exceeds the worker's wall time since the
// clock was made, measured time included.
func TestUDFClockClampsToWallTime(t *testing.T) {
	stub := &stubClock{step: time.Hour}
	c := udfClock{now: stub.now, born: time.Now()}
	for i := 0; i < 4*udfClockStride; i++ {
		c.start(i)
		c.stop()
	}
	if got, wall := c.total(time.Hour), time.Since(c.born); got > wall {
		t.Errorf("total %v after %v of wall time", got, wall)
	}
}
