package engine

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"consolidation/internal/consolidate"
	"consolidation/internal/lang"
)

// errData is a toyData variant whose library call fails on records past a
// threshold, forcing workers to abort mid-pass.
type errData struct {
	toyData
	failAt int64
}

func (d *errData) Clone() RecordLibrary {
	return &errData{toyData: toyData{vals: d.toyData.vals}, failAt: d.failAt}
}

func (d *errData) Call(name string, args []int64) (int64, error) {
	if d.cur >= d.failAt {
		return 0, fmt.Errorf("record value %d: injected failure", d.cur)
	}
	return d.toyData.Call(name, args)
}

// TestCancellationNoGoroutineLeak aborts parallel evaluation passes
// mid-run (a library call fails on some records while other workers are
// still evaluating theirs) and asserts the engine's worker goroutines are
// all gone afterwards: the claim loop must join every worker on the error
// path, not abandon them.
func TestCancellationNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		d := &errData{failAt: 20}
		for r := 0; r < 200; r++ {
			d.vals = append(d.vals, int64(r*7%50))
		}
		// BatchSize 16 keeps all 4 workers in play (200 records, 13
		// batches); the default batch size would clamp the pass to one
		// worker here.
		_, err := WhereMany(d, thresholdUDFs(10, 25, 40), Options{Workers: 4, BatchSize: 16})
		if err == nil {
			t.Fatal("expected injected failure to surface")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker goroutines leaked: %d at baseline, %d after 8 aborted passes", baseline, now)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// pacedData fails instantly in one worker's range while the other worker's
// calls are slow and counted, so the test can observe how much of its chunk
// the surviving worker ran after the error was recorded.
type pacedData struct {
	toyData
	// failBelow makes calls on records with value < failBelow error
	// immediately; other calls sleep briefly and are counted.
	failBelow int64
	firstErr  chan struct{} // closed when the failing worker has errored
	slowCalls *atomic.Int64
}

func (d *pacedData) Clone() RecordLibrary {
	return &pacedData{
		toyData:   toyData{vals: d.toyData.vals},
		failBelow: d.failBelow,
		firstErr:  d.firstErr,
		slowCalls: d.slowCalls,
	}
}

func (d *pacedData) Call(name string, args []int64) (int64, error) {
	if d.cur < d.failBelow {
		err := fmt.Errorf("record value %d: injected failure", d.cur)
		select {
		case <-d.firstErr:
		default:
			close(d.firstErr)
		}
		return 0, err
	}
	// Wait until the failure has been recorded, then pace the survivor so
	// the done flag has every chance to be observed between records.
	<-d.firstErr
	d.slowCalls.Add(1)
	time.Sleep(time.Millisecond)
	return d.toyData.Call(name, args)
}

// TestClaimLoopEarlyExitOnError pins the batched early-exit: the done flag is
// checked once per batch, so once one worker records an error the others
// must stop at the next batch boundary — they finish the batch in flight
// and claim no further ones.
func TestClaimLoopEarlyExitOnError(t *testing.T) {
	const n, bsize = 200, 10
	baseline := runtime.NumGoroutine()
	d := &pacedData{failBelow: 1000, firstErr: make(chan struct{}), slowCalls: new(atomic.Int64)}
	for r := 0; r < n; r++ {
		// Batch 0 (records 0..9) holds only value 1 (fails on first call);
		// every later batch holds value 2000 (slow, counted successes).
		if r < bsize {
			d.vals = append(d.vals, 1)
		} else {
			d.vals = append(d.vals, 2000)
		}
	}
	_, err := WhereMany(d, thresholdUDFs(10), Options{Workers: 2, BatchSize: bsize})
	if err == nil {
		t.Fatal("expected injected failure to surface")
	}
	// One worker claims batch 0 and fails on its first record; the
	// survivor may finish the batch it had in flight (its slow calls are
	// paced behind the failure) but must not claim another. Two batches of
	// slack absorb scheduling races; without the per-batch done check the
	// survivor runs all 19 slow batches (190 calls).
	if got := d.slowCalls.Load(); got > 2*bsize {
		t.Fatalf("surviving worker ran %d slow records after the error; more than the in-flight batch", got)
	}
	// And the abort must join every worker: no goroutine may outlive the
	// pass.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("worker goroutines leaked after an aborted batched pass: %d at baseline, %d now",
				baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// panicToy is a liteToy whose full decode panics on one record — a fault in
// caller-implemented library code, inside a worker.
type panicToy struct {
	*liteToy
	at int
}

func (d *panicToy) SetRecord(i int) {
	if i == d.at {
		panic(fmt.Sprintf("injected panic on record %d", i))
	}
	d.liteToy.SetRecord(i)
}
func (d *panicToy) Clone() RecordLibrary {
	return &panicToy{d.liteToy.Clone().(*liteToy), d.at}
}

// TestWorkerPanicContained: a panic inside a worker — here in the library's
// SetRecord, mid-pass, while other workers are evaluating — must come back
// as the pass error from every operator on the claim loop, with every worker
// joined, instead of taking the process down.
func TestWorkerPanicContained(t *testing.T) {
	const n, at = 400, 102 // key(102) = 65 passes the sharded fixture's key >= 60 gate: the record is decoded
	baseline := runtime.NumGoroutine()
	d := &panicToy{newLiteToy(n), at}
	opts := Options{Workers: 4, BatchSize: 16}
	udfs := gatedToyUDFs(3, 0) // key >= 0 always holds: every record reaches the full decode
	sh, _ := shardedFixture(t, d.liteToy, 4, 2)
	if _, err := sh.Flush(); err != nil {
		t.Fatal(err)
	}
	agg := lang.MustParseAgg(`agg total(r) window 8 { acc s = 0; fold { s := s + val(r); } emit { notify 0 (s > 100); } }`)
	passes := map[string]func() error{
		"WhereMany": func() error { _, err := WhereMany(d, udfs, opts); return err },
		"WhereConsolidated": func() error {
			_, err := WhereConsolidated(d, udfs, consolidate.Options{}, opts)
			return err
		},
		"WhereSharded": func() error { _, err := WhereSharded(d, sh, opts); return err },
		"AggregateConsolidated": func() error {
			_, err := AggregateConsolidated(d, []*lang.AggProgram{agg}, consolidate.Options{}, opts)
			return err
		},
	}
	for name, pass := range passes {
		err := pass()
		if err == nil || !strings.Contains(err.Error(), "engine: worker panic on claim") ||
			!strings.Contains(err.Error(), fmt.Sprintf("injected panic on record %d", at)) {
			t.Fatalf("%s: panic was not reported as the pass error: %v", name, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("worker goroutines leaked after panicking passes: %d at baseline, %d now",
				baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
