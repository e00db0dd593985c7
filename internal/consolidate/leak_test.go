package consolidate

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"consolidation/internal/lang"
)

// TestParallelCancelNoGoroutineLeak fails a pair mid-tree while parallel
// workers are consolidating the healthy siblings and asserts every worker
// goroutine is joined after All returns the error — cancellation must not
// strand goroutines on the errgroup-style fan-out.
func TestParallelCancelNoGoroutineLeak(t *testing.T) {
	bad1 := lang.MustParse(`func bad1(x) { notify 90 (x > 0); }`)
	bad2 := lang.MustParse(`func bad2(y) { notify 91 (y > 0); }`)
	progs := []*lang.Program{bad1, bad2}
	for i := 0; i < 6; i++ {
		progs = append(progs, lang.MustParse(fmt.Sprintf(
			`func ok%d(a, b) {
				s := 0;
				i := 0;
				while (i < 3) { s := (s + a); i := (i + 1); }
				notify %d ((s + b) > %d);
			}`, i, 10+i, i)))
	}

	baseline := runtime.NumGoroutine()
	for rep := 0; rep < 5; rep++ {
		if _, _, err := All(progs, DefaultOptions(), false, true); err == nil {
			t.Fatal("expected parameter-mismatch error from the bad pair")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d at baseline, %d after 5 aborted runs", baseline, now)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
