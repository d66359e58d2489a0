package experiments

import (
	"sort"

	"tsplit/internal/device"
	"tsplit/internal/models"
	"tsplit/internal/prep"
)

// MaxSampleScale finds the largest batch size a policy can train
// (paper Table IV / VI) by exponential probing followed by binary
// search. hi bounds the search (0 = 4096).
func MaxSampleScale(model, policy string, dev device.Device, cfg models.Config, hi int) int {
	return sampleScales(dev, []string{model}, []string{policy}, cfg, hi)[0][0]
}

// MaxParamScale finds the largest integer parameter-scale multiplier k
// (channels / hidden size ×k, paper Table V / VII) trainable at the
// paper's fixed batch of 16.
func MaxParamScale(model, policy string, dev device.Device, cfg models.Config, hi int) int {
	return paramScales([]string{model}, []string{policy}, dev, cfg, hi)[0][0]
}

// sampleScales is MaxSampleScale for every (model, policy) pair at
// once: result[m][p] is the largest trainable batch size. Every probe
// point is rebatched from the model's template in templates, so each
// model is built twice per process however many points the searches
// visit.
func sampleScales(dev device.Device, mods, policies []string, cfg models.Config, hi int) [][]int {
	if hi == 0 {
		hi = 4096
	}
	return searchScales(mods, policies, hi, func(model string, b int) (*prep.Prepared, error) {
		c := cfg
		c.BatchSize = b
		return templates.Prepare(model, c, dev, Obs)
	})
}

// paramScales is MaxParamScale for every (model, policy) pair at once.
func paramScales(mods, policies []string, dev device.Device, cfg models.Config, hi int) [][]int {
	if hi == 0 {
		hi = 128
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 16
	}
	return searchScales(mods, policies, hi, func(model string, k int) (*prep.Prepared, error) {
		c := cfg
		c.ParamScale = float64(k)
		return prepare(model, c, dev)
	})
}

// scaleCursor is one max-scale search, suspended between probes: the
// largest n in [0, hi] that is feasible, found by probing
// exponentially from 1 and binary-searching the failing octave. probe
// is the point whose verdict the search needs next (0 once it has
// finished); report feeds the verdict in. Feasibility is assumed
// monotone (true below the answer, false above) — the occasional
// fragmentation-induced non-monotonicity makes the result a lower
// bound, like a real OOM would.
type scaleCursor struct {
	hi     int
	probe  int
	lo, up int  // feasible(lo) or lo == 0; !feasible(up) or up == hi+1
	binary bool // the failing octave [lo, up) is known
}

func newScaleCursor(hi int) scaleCursor { return scaleCursor{hi: hi, probe: 1} }

// report records whether the current probe point is feasible and
// advances probe to the next point, or to 0 when lo is the answer.
func (c *scaleCursor) report(feasible bool) {
	if !feasible {
		c.up, c.binary = c.probe, true
	} else {
		c.lo = c.probe
		if !c.binary {
			if c.probe*2 <= c.hi {
				c.probe *= 2
				return
			}
			c.up, c.binary = c.hi+1, true
		}
	}
	c.probe = 0
	if c.lo+1 < c.up {
		c.probe = (c.lo + c.up) / 2
	}
}

// searchScales runs one scaleCursor per (model, policy) pair and
// advances them all together, a round at a time. The policies of one
// model ask for the same points again and again — every search starts
// with the same powers of two — so a round prepares each distinct
// (model, point) workload once, runs it under every policy whose
// cursor is waiting on that point, and releases it. The groups of a
// round fan out over forEach and share nothing mutable (prepare must
// be safe for concurrent use); each cursor waits on exactly one
// point, so exactly one group writes its verdict. A group keeps only
// verdicts, so it builds its plans in a borrowed RunStore. prepare
// returns a model's workload at a probe point: rebatched from a
// template into a slot along the batch axis, which the group releases
// when its verdicts are in, and built fresh along the parameter axis.
func searchScales(mods, policies []string, hi int, prepare func(model string, n int) (*prep.Prepared, error)) [][]int {
	type group struct{ model, n int }
	cur := make([][]scaleCursor, len(mods))
	feasible := make([][]bool, len(mods))
	for m := range mods {
		cur[m] = make([]scaleCursor, len(policies))
		feasible[m] = make([]bool, len(policies))
		for p := range policies {
			cur[m][p] = newScaleCursor(hi)
		}
	}
	var groups []group
	for {
		groups = groups[:0]
		for m := range cur {
			for p := range cur[m] {
				if n := cur[m][p].probe; n > 0 {
					groups = append(groups, group{m, n})
				}
			}
		}
		if len(groups) == 0 {
			break
		}
		sort.Slice(groups, func(a, b int) bool {
			if groups[a].model != groups[b].model {
				return groups[a].model < groups[b].model
			}
			return groups[a].n < groups[b].n
		})
		distinct := groups[:1] // de-duplicated in place, behind the read position
		for _, g := range groups[1:] {
			if g != distinct[len(distinct)-1] {
				distinct = append(distinct, g)
			}
		}
		forEach(len(distinct), func(k int) {
			g := distinct[k]
			w, err := prepare(mods[g.model], g.n)
			st := runStores.Get().(*prep.RunStore)
			for p := range policies {
				if cur[g.model][p].probe == g.n {
					feasible[g.model][p] = err == nil && runPolicy(w, policies[p], st).Feasible
				}
			}
			runStores.Put(st)
			if err == nil {
				w.Release()
			}
		})
		for m := range cur {
			for p := range cur[m] {
				if cur[m][p].probe > 0 {
					cur[m][p].report(feasible[m][p])
				}
			}
		}
	}
	out := make([][]int, len(mods))
	for m := range cur {
		out[m] = make([]int, len(policies))
		for p := range cur[m] {
			out[m][p] = cur[m][p].lo
		}
	}
	return out
}
