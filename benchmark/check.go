package main

import (
	"math/rand"

	"consolidation/internal/lang"
)

// diffBools compares two verdict tables cell by cell and returns how many
// cells were compared and how many differ. A missing row or cell differs.
func diffBools(want, got [][]bool) (checked, differing int) {
	for i, w := range want {
		checked += len(w)
		if i >= len(got) {
			differing += len(w)
			continue
		}
		for q, v := range w {
			if q >= len(got[i]) || got[i][q] != v {
				differing++
			}
		}
	}
	return checked, differing
}

// interpSample re-evaluates a seeded sample of records under every UDF with
// lang.NewInterp — the repository's single semantic reference, which shares
// no code with the VM that both engine operators run on — and compares with
// the merged verdicts. n records are drawn, fewer when there are more than
// 50 UDFs, so that no workload spends longer here than in its timed calls.
func interpSample(p *part, merged [][]bool, rng *rand.Rand, n int) (checked, differing int) {
	lib := p.ds.Clone()
	in := lang.NewInterp(lib)
	if len(p.udfs) > 50 {
		n = n * 50 / len(p.udfs)
	}
	if n > lib.NumRecords() {
		n = lib.NumRecords()
	}
	for k := 0; k < n; k++ {
		i := rng.Intn(lib.NumRecords())
		lib.SetRecord(i)
		for q, u := range p.udfs {
			checked++
			if !interpAgrees(in, u, i, merged[i][q]) {
				differing++
			}
		}
	}
	return checked, differing
}

// interpAgrees runs one UDF on record i (already selected in the
// interpreter's library) and reports whether its single notification equals
// got. An interpreter error or a missing notification disagrees.
func interpAgrees(in *lang.Interp, u *lang.Program, i int, got bool) bool {
	r, err := in.Run(u, []int64{int64(i)})
	if err != nil || len(r.Notes) != 1 {
		return false
	}
	for _, v := range r.Notes {
		return v == got
	}
	return false
}
