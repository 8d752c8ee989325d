package item

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRunRandomPatches drives runs through random patch sequences against a
// plain sorted slice. Deltas range from single entries to bulk loads and
// bulk deletes, so chunks split, merge, empty out and regrow; every
// generation is kept and re-checked after the last patch, which catches a
// patch writing into a chunk an older generation shares.
func TestRunRandomPatches(t *testing.T) {
	_, runChunkMax := chunkBounds[ID]()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var (
			run  *Run[ID]
			want []ID
			gens []*Run[ID]
			wnts [][]ID
		)
		for step := 0; step < 200; step++ {
			universe := 4 * runChunkMax * (1 + rng.Intn(4))
			var add, del []ID
			switch k := rng.Intn(10); {
			case k == 0: // bulk load
				for i := rng.Intn(3 * runChunkMax); i > 0; i-- {
					add = append(add, ID(rng.Intn(universe)))
				}
			case k == 1 && len(want) > 0: // bulk delete of a contiguous span
				lo := rng.Intn(len(want))
				hi := min(len(want), lo+rng.Intn(2*runChunkMax))
				del = append(del, want[lo:hi]...)
			default:
				for i := rng.Intn(8); i > 0; i-- {
					add = append(add, ID(rng.Intn(universe)))
				}
				for i := rng.Intn(8); i > 0 && len(want) > 0; i-- {
					del = append(del, want[rng.Intn(len(want))])
				}
				if rng.Intn(4) == 0 {
					del = append(del, ID(rng.Intn(universe))) // maybe absent
				}
			}
			want = modelPatch(want, add, del)
			run = run.Patch(slices.Clone(add), slices.Clone(del))
			if err := checkRun(run, want); err != "" {
				t.Fatalf("seed %d step %d: %s", seed, step, err)
			}
			gens, wnts = append(gens, run), append(wnts, want)
		}
		for i, g := range gens {
			if err := checkRun(g, wnts[i]); err != "" {
				t.Fatalf("seed %d: generation %d changed after later patches: %s", seed, i, err)
			}
		}
	}
}

// modelPatch is Run.Patch over a plain sorted slice: want minus del plus
// add, as a fresh slice.
func modelPatch(want, add, del []ID) []ID {
	set := make(map[ID]bool, len(want)+len(add))
	for _, id := range want {
		set[id] = true
	}
	for _, id := range del {
		delete(set, id)
	}
	for _, id := range add {
		set[id] = true
	}
	out := make([]ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// checkRun compares a run with its expected content and checks the chunk
// invariants, returning a description of the first difference.
func checkRun(r *Run[ID], want []ID) string {
	runChunkMin, runChunkMax := chunkBounds[ID]()
	if r.Len() != len(want) {
		return "Len differs"
	}
	if len(want) == 0 {
		if r != nil {
			return "an empty run is not nil"
		}
		return ""
	}
	if !slices.Equal(r.Slice(), want) {
		return "Slice differs"
	}
	// The chunks themselves, not only the flat slice built from them once.
	var cat []ID
	for _, c := range r.chunks {
		cat = append(cat, c.items...)
	}
	if !slices.Equal(cat, want) {
		return "chunks differ"
	}
	for i, c := range r.chunks {
		if len(c.items) == 0 || len(c.items) > runChunkMax || (len(r.chunks) > 1 && len(c.items) < runChunkMin) {
			return "chunk size out of bounds"
		}
		if cap(c.items) != len(c.items) {
			return "chunk capacity not clipped"
		}
		if i > 0 {
			prev := r.chunks[i-1].items
			if prev[len(prev)-1] >= c.items[0] {
				return "chunks out of order"
			}
		}
	}
	// Positional lookups: every seek agrees with a search of the flat slice.
	for _, probe := range []ID{want[0], want[len(want)/2], want[len(want)-1] + 1, 0} {
		lo := r.seek(func(id ID) bool { return id >= probe })
		hi := r.seek(func(id ID) bool { return id > probe+ID(runChunkMax) })
		wlo, _ := slices.BinarySearch(want, probe)
		whi, _ := slices.BinarySearch(want, probe+ID(runChunkMax)+1)
		if r.count(runPos{}, lo) != wlo || r.count(lo, hi) != whi-wlo {
			return "seek or count differs"
		}
		var got []ID
		r.each(lo, hi, func(id ID) { got = append(got, id) })
		if !slices.Equal(got, want[wlo:whi]) {
			return "each differs"
		}
	}
	return ""
}

// TestRunPatchSharesUntouchedChunks: a small patch rebuilds only the chunk
// it lands in, and an empty patch returns the run itself.
func TestRunPatchSharesUntouchedChunks(t *testing.T) {
	_, runChunkMax := chunkBounds[ID]()
	ids := make([]ID, 10*runChunkMax)
	for i := range ids {
		ids[i] = ID(2 * i)
	}
	base := NewRun(ids)
	if base.Patch(nil, nil) != base {
		t.Fatal("an empty patch built a new run")
	}
	next := base.Patch([]ID{ID(2*runChunkMax*5 + 1)}, nil)
	old := make(map[*runChunk[ID]]bool)
	for _, c := range base.chunks {
		old[c] = true
	}
	shared := 0
	for _, c := range next.chunks {
		if old[c] {
			shared++
		}
	}
	if shared != len(base.chunks)-1 {
		t.Fatalf("%d of %d chunks shared, want all but one", shared, len(base.chunks))
	}
}

// TestRunPatchMatchesSortedSet is a differential of Patch against a plain
// sorted set over random deltas that repeat entries in add and in del, put
// one entry on both sides, delete entries the run does not hold, land
// before the first and after the last chunk, and bulk-load one chunk past
// its bound so it splits. A patch that leaves the content as it was must
// return the run itself, and neither delta slice may be retained.
func TestRunPatchMatchesSortedSet(t *testing.T) {
	_, runChunkMax := chunkBounds[ID]()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var run *Run[ID]
		var want []ID
		for step := 0; step < 150; step++ {
			universe := 3 * runChunkMax * (1 + rng.Intn(3))
			pick := func() ID {
				if len(want) > 0 && rng.Intn(2) == 0 {
					return want[rng.Intn(len(want))]
				}
				return ID(rng.Intn(universe + 2)) // may fall past the last entry
			}
			var add, del []ID
			switch rng.Intn(8) {
			case 0: // empty on one side
				add = append(add, pick())
			case 1:
				del = append(del, pick())
			case 2: // bulk into one chunk's span: it splits
				lo := rng.Intn(universe)
				for i := rng.Intn(2 * runChunkMax); i > 0; i-- {
					add = append(add, ID(lo+rng.Intn(runChunkMax)))
				}
			case 3: // already held or already absent: no change
				for i := rng.Intn(4) + 1; i > 0 && len(want) > 0; i-- {
					add = append(add, want[rng.Intn(len(want))])
				}
				del = append(del, ID(universe+10))
			default:
				for i := rng.Intn(6); i > 0; i-- {
					x := pick()
					add = append(add, x)
					if rng.Intn(3) == 0 {
						add = append(add, x) // duplicate
					}
				}
				for i := rng.Intn(6); i > 0; i-- {
					x := pick()
					del = append(del, x, x) // duplicate
					if rng.Intn(3) == 0 {
						add = append(add, x) // both sides: stays
					}
				}
			}
			if rng.Intn(4) == 0 {
				add = append(add, 0) // before the first chunk
			}
			next := modelPatch(want, add, del)
			addCopy, delCopy := slices.Clone(add), slices.Clone(del)
			got := run.Patch(add, del)
			if err := checkRun(got, next); err != "" {
				t.Fatalf("seed %d step %d (add %v del %v): %s", seed, step, addCopy, delCopy, err)
			}
			if slices.Equal(next, want) && got != run {
				t.Fatalf("seed %d step %d: an unchanged run is a new run", seed, step)
			}
			clear(add) // a retained delta would corrupt the run now
			clear(del)
			if err := checkRun(got, next); err != "" {
				t.Fatalf("seed %d step %d: the run retained a delta slice: %s", seed, step, err)
			}
			run, want = got, next
		}
	}
}
