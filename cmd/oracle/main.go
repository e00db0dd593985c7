// Command oracle runs randomized differential-testing campaigns against
// the whole consolidation stack: generated Figure 1 program batches are
// consolidated and held to Definition 1 and the §2 cost theorem, churn
// traces are replayed against the live registry and compared
// byte-for-byte with from-scratch consolidation, and random QF_UFLIA
// formulas cross-check the SMT solver against a brute-force model search.
//
// Failing seeds are shrunk to minimal reproducers and written under -out
// (one directory per failure, with the pretty-printed programs, the
// probe inputs, and a README describing the violated property); the
// process exits 1 if any check failed.
//
// Typical runs:
//
//	go run ./cmd/oracle -n 500 -seed 1        # the acceptance campaign
//	go run ./cmd/oracle -n 1 -seed 123456     # reproduce one seed
//	go run ./cmd/oracle -checks smt -n 10000  # hammer one subsystem
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"consolidation/internal/lang"
	"consolidation/internal/oracle"
)

// finding is one failure with the table row that reported it.
type finding struct {
	check *oracle.Check
	f     *oracle.Failure
}

func main() {
	var names []string
	for _, c := range oracle.Checks {
		names = append(names, c.Name)
	}
	var (
		n            = flag.Int("n", 500, "number of seeds to run")
		seed         = flag.Int64("seed", 1, "base seed; iteration i uses seed+i")
		events       = flag.Int("events", 5, "churn events per registry / shard check")
		checks       = flag.String("checks", strings.Join(names, ","), "comma-separated checks to run")
		shrinkBudget = flag.Int("shrink-budget", oracle.DefaultShrinkBudget, "re-check budget per shrink")
		out          = flag.String("out", "oracle-failures", "directory for minimized reproducers")
		jobs         = flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent iterations")
		verbose      = flag.Bool("v", false, "log every iteration")
	)
	flag.Parse()

	enabled := map[string]bool{}
	for _, c := range strings.Split(*checks, ",") {
		enabled[strings.TrimSpace(c)] = true
	}

	start := time.Now()
	var (
		mu       sync.Mutex
		failures []finding
		ran      = make([]atomic.Int64, len(oracle.Checks))
	)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < max(1, *jobs); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				s := *seed + int64(i)
				var found []finding
				for ci := range oracle.Checks {
					c := &oracle.Checks[ci]
					if !enabled[c.Name] || !c.Selects(s) {
						continue
					}
					ran[ci].Add(1)
					if f := c.Run(s, *events); f != nil {
						found = append(found, finding{c, f})
					}
				}
				mu.Lock()
				failures = append(failures, found...)
				if *verbose {
					fmt.Printf("seed %d: %d failure(s)\n", s, len(found))
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < *n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()

	sort.SliceStable(failures, func(i, j int) bool { return failures[i].f.Seed < failures[j].f.Seed })
	for _, fd := range failures {
		fmt.Fprintf(os.Stderr, "FAIL %v\n", fd.f)
		g := oracle.Shrink(fd.f, *shrinkBudget)
		if dir, err := writeReproducer(*out, fd.check, g, *events); err != nil {
			fmt.Fprintf(os.Stderr, "  (could not write reproducer: %v)\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "  minimized reproducer: %s\n", dir)
		}
	}
	var counts []string
	for ci, c := range oracle.Checks {
		counts = append(counts, fmt.Sprintf("%d %s", ran[ci].Load(), c.Name))
	}
	fmt.Printf("oracle: %d seeds from %d in %s — %s checks, %d failure(s)\n",
		*n, *seed, time.Since(start).Round(time.Millisecond), strings.Join(counts, ", "), len(failures))
	if len(failures) > 0 {
		os.Exit(1)
	}
}

// writeReproducer persists one shrunk failure under dir, returning the
// created path. The replay line names the check and the trace length: the
// churn rows run only on their own seeds and replay a trace of that length.
func writeReproducer(root string, c *oracle.Check, f *oracle.Failure, events int) (string, error) {
	dir := filepath.Join(root, fmt.Sprintf("seed%d-%s", f.Seed, f.Check))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	readme := fmt.Sprintf("check: %s\nseed: %d\n\n%s\n\nReplay: go run ./cmd/oracle -n 1 -seed %d -checks %s -events %d\n",
		f.Check, f.Seed, f.Msg, f.Seed, c.Name, events)
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte(readme), 0o644); err != nil {
		return "", err
	}
	if f.Batch != nil {
		var sb strings.Builder
		for _, p := range f.Batch.Progs {
			sb.WriteString(lang.Format(p))
			sb.WriteString("\n")
		}
		if err := os.WriteFile(filepath.Join(dir, "programs.udf"), []byte(sb.String()), 0o644); err != nil {
			return "", err
		}
		var in strings.Builder
		for _, rec := range f.Batch.Inputs {
			fmt.Fprintln(&in, rec)
		}
		if f.Input != nil {
			fmt.Fprintf(&in, "# offending input: %v\n", f.Input)
		}
		if err := os.WriteFile(filepath.Join(dir, "inputs.txt"), []byte(in.String()), 0o644); err != nil {
			return "", err
		}
	}
	if f.Formula != "" {
		if err := os.WriteFile(filepath.Join(dir, "formula.txt"), []byte(f.Formula+"\n"), 0o644); err != nil {
			return "", err
		}
	}
	return dir, nil
}
