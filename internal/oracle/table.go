package oracle

// Check is one row of the campaign table: cmd/oracle ranges over Checks for
// selection, counting and its summary line, and Shrink finds the re-run of
// a failed check in it. Adding a check is adding a row.
type Check struct {
	// Name selects the row in cmd/oracle's -checks list.
	Name string
	// Kinds are the Failure.Check values the row reports; the first row
	// listing a kind is the one Shrink re-runs for it.
	Kinds []string
	// The row runs on the seeds with (seed+Offset) divisible by Stride.
	Stride, Offset int64
	// Run derives the row's input from the seed alone, so "-n 1 -seed S"
	// replays exactly what failed in a campaign. events is the churn-trace
	// length; rows without a trace ignore it.
	Run func(seed int64, events int) *Failure
	// Rerun re-checks a shrink candidate; nil when failures carry no batch.
	Rerun func(b *Batch, events int) *Failure
}

// Selects reports whether the row runs on seed.
func (c *Check) Selects(seed int64) bool { return (seed+c.Offset)%c.Stride == 0 }

// Checks is the campaign table. The churn rows replay a from-scratch
// consolidation (or two registries) per event, so they start from two
// programs and run on every fourth seed, two apart.
var Checks = []Check{
	batchCheck("consolidate", 1, 0, shapeFor, noEvents(CheckConsolidation), CheckDef1, CheckCost, CheckDeterminism, CheckErr),
	batchCheck("exec", 1, 0, shapeFor, noEvents(CheckExecutor), CheckExec),
	batchCheck("prefilter", 1, 0, shapeFor, noEvents(CheckPrefilter), CheckPrefilterSound),
	batchCheck("batch", 1, 0, shapeFor, noEvents(CheckBatchParity), CheckBatch),
	seedCheck("aggregate", func(seed int64) *Failure { return CheckAggregate(GenAggCase(seed)) }, CheckAggParity),
	batchCheck("registry", 4, 0, churnShape, CheckRegistry, CheckIncremental),
	batchCheck("shard", 4, 2, churnShape, CheckSharded, CheckShard),
	seedCheck("smt", CheckSMT, CheckSMTSound),
	seedCheck("context", CheckSMTContext, CheckCtxAgree),
	seedCheck("intern", CheckInterner, CheckIntern),
}

// rerunFor finds the re-check of a failure kind: that of the first row
// listing it, nil when the kind carries no batch to shrink.
func rerunFor(kind string) func(*Batch, int) *Failure {
	for i := range Checks {
		for _, k := range Checks[i].Kinds {
			if k == kind {
				return Checks[i].Rerun
			}
		}
	}
	return nil
}

func batchCheck(name string, stride, offset int64, shape func(int64) GenOptions,
	check func(*Batch, int) *Failure, kinds ...string) Check {
	return Check{Name: name, Kinds: kinds, Stride: stride, Offset: offset, Rerun: check,
		Run: func(seed int64, events int) *Failure { return check(Generate(seed, shape(seed)), events) }}
}

func seedCheck(name string, check func(int64) *Failure, kinds ...string) Check {
	return Check{Name: name, Kinds: kinds, Stride: 1,
		Run: func(seed int64, _ int) *Failure { return check(seed) }}
}

func noEvents(check func(*Batch) *Failure) func(*Batch, int) *Failure {
	return func(b *Batch, _ int) *Failure { return check(b) }
}

// shapeFor rotates batch shapes across seeds so a campaign covers small and
// large batches, shallow and deep nesting — not 500 samples of one
// silhouette.
func shapeFor(seed int64) GenOptions {
	o := DefaultGenOptions()
	o.Mix = Mix(seed % 3)
	o.Programs = 2 + int((seed/3)%3)
	o.TopStmts = 2 + int((seed/9)%2)
	if (seed/18)%5 == 4 {
		o.Depth = 3
	}
	return o
}

func churnShape(seed int64) GenOptions {
	o := shapeFor(seed)
	o.Programs = 2
	return o
}
