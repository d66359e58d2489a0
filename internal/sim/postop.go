package sim

import (
	"fmt"

	"tsplit/internal/core"
	"tsplit/internal/graph"
	"tsplit/internal/memorypool"
	"tsplit/internal/tensor"
)

// freeNow releases t's device block (if any) and marks it dead for the
// rest of the iteration.
func (s *Simulator) freeNow(t *graph.Tensor) {
	if blk := s.block[t.ID]; blk.Size != 0 {
		s.pool.FreeBlock(blk)
		s.block[t.ID] = memorypool.Block{}
	}
	s.state[t.ID] = freed
}

// dropNow releases t's device block; the tensor can be regenerated by
// recomputation later.
func (s *Simulator) dropNow(t *graph.Tensor) {
	if blk := s.block[t.ID]; blk.Size != 0 {
		s.pool.FreeBlock(blk)
		s.block[t.ID] = memorypool.Block{}
	}
	s.state[t.ID] = dropped
}

// freeToHost releases t's device block while a valid master copy
// remains on the host (sharded parameters): no copy traffic.
func (s *Simulator) freeToHost(t *graph.Tensor) {
	if blk := s.block[t.ID]; blk.Size != 0 {
		s.pool.FreeBlock(blk)
		s.block[t.ID] = memorypool.Block{}
	}
	s.state[t.ID] = onHost
}

// postOp applies the plan's eviction decisions and reference-count
// frees after schedule op i executed.
func (s *Simulator) postOp(i int, op *graph.Op) {
	now := s.tc
	for _, in := range op.Inputs {
		s.remaining[in.ID]--
	}
	for ii, in := range op.Inputs {
		// Process each distinct input once (ops may list a tensor
		// twice); the linear rescan replaces a per-op map — input
		// lists are a handful of entries.
		dup := false
		for _, prev := range op.Inputs[:ii] {
			if prev == in {
				dup = true
				break
			}
		}
		if dup || s.state[in.ID] != onDevice {
			continue
		}
		id := in.ID
		planned := s.planned[id]
		tp := &s.tplans[id]
		switch {
		case s.Plan.ShardParams && in.Kind == tensor.Parameter:
			// Sharded parameters leave after every use window; the
			// host master stays valid (updates write back separately).
			s.freeToHost(in)
		case s.remaining[id] <= 0 && !s.resident(in):
			s.freeNow(in)
		case planned && tp.EvictAt == i && tp.Opt == core.Swap:
			s.startSwapOut(in, now, s.earlyCopied[id])
		case planned && tp.EvictAt == i && tp.Opt == core.Recompute:
			s.dropNow(in)
		case s.wasRecomputed[id] && s.Opts.Recompute == MemoryCentric:
			// Memory-centric recomputation: regenerated tensors leave
			// immediately; later consumers pay the chain again.
			s.dropNow(in)
		}
	}
	for _, out := range op.Outputs {
		if s.state[out.ID] != onDevice {
			continue
		}
		switch {
		case s.remaining[out.ID] == 0 && !s.resident(out):
			s.freeNow(out)
		case s.Plan.OffloadOptimizer && out.Kind == tensor.ParamGrad:
			// ZeRO-Offload streams parameter gradients to the CPU as
			// soon as they are produced.
			s.startSwapOut(out, now, false)
		case s.Plan.ShardParams && out.Kind == tensor.ParamGrad:
			s.startSwapOut(out, now, false)
		}
	}
}

// chainAvail is the simulator's recompute-chain source predicate: x
// is on device, or whole-restorable from the host (micro-restored
// tensors only return in fragments streamed into their split consumer,
// so the chain regenerates deeper instead of pulling them back).
type chainAvail struct{ s *Simulator }

func (q chainAvail) Avail(x *graph.Tensor) bool {
	s := q.s
	switch s.state[x.ID] {
	case onDevice:
		return true
	case onHost:
		return !s.planned[x.ID] || s.tplans[x.ID].MicroRestore <= 1
	}
	return false
}

// regenerate re-executes the forward chain producing t (recompute).
// The chain sources are tensors currently on device or restorable from
// the host; chain intermediates are retired according to the
// recomputation strategy.
func (s *Simulator) regenerate(t *graph.Tensor, at float64) (float64, error) {
	walked, err := core.WalkChain(&s.walker, t, chainAvail{s}, len(s.G.Ops))
	if err != nil {
		return 0, fmt.Errorf("regenerating %s: %w", t.Name, err)
	}
	// The walked chain lives only until the next walk, and executing
	// it re-enters regenerate through ensureInput (LRU drops under
	// pressure): run a copy from the free list. Both buffers go back on
	// every exit, an OOM's included.
	chain := append(take(&s.chainFree), walked...)
	fresh := take(&s.freshFree)
	defer func() {
		put(&s.freshFree, fresh)
		put(&s.chainFree, chain)
	}()
	for _, c := range chain {
		s.pin(c)
		ready := at
		for _, in := range c.Inputs {
			r, err := s.ensureInput(in, ready)
			if err != nil {
				return 0, err
			}
			if r > ready {
				ready = r
			}
		}
		var wsBlock memorypool.Block
		if c.Workspace > 0 {
			blk, r, err := s.allocWait(c.Workspace, ready)
			if err != nil {
				return 0, err
			}
			ready = r
			wsBlock = blk
		}
		for _, out := range c.Outputs {
			blk, r, err := s.allocWait(out.Bytes(), ready)
			if err != nil {
				return 0, err
			}
			ready = r
			s.block[out.ID] = blk
			s.state[out.ID] = onDevice
			s.wasRecomputed[out.ID] = true
			fresh = append(fresh, out) //lint:allow scratchreuse fresh is free-list recycled; put stores it length-reset
		}
		start := s.tc
		if ready > start {
			start = ready
		}
		if st := start - s.tc; st > 0 {
			s.res.InputStallTime += st
		}
		// Noise is keyed by the chain op's own schedule position, so a
		// regeneration mispredicts exactly like the original execution.
		idx := int(s.schedIdx[c.ID])
		dur := s.noisy(idx, s.opTime[idx])
		s.tc = start + dur
		s.res.ComputeTime += dur
		s.res.RecomputeTime += dur
		for _, out := range c.Outputs {
			s.readyAt[out.ID] = s.tc
		}
		s.res.RecomputedOps++
		if wsBlock.Size > 0 {
			s.pool.FreeBlock(wsBlock)
		}
	}
	// Retire intermediates per strategy; the target itself is retired
	// by postOp after its consumer runs.
	for _, x := range fresh {
		if x == t {
			continue
		}
		if s.Opts.Recompute == MemoryCentric {
			s.dropNow(x)
		} else {
			s.lruCache = append(s.lruCache, x)
		}
	}
	if s.state[t.ID] != onDevice {
		return 0, fmt.Errorf("regenerating %s: chain did not produce it", t.Name)
	}
	return s.readyAt[t.ID], nil
}

// take pops a length-reset buffer off a free list, or returns nil.
// Regeneration buffers come from free lists, not single fields,
// because regeneration re-enters.
func take[T any](free *[][]T) []T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	b := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return b
}

// put clears b and returns it, length-reset, to its free list.
func put[T any](free *[][]T, b []T) {
	if cap(b) == 0 {
		return
	}
	clear(b)
	*free = append(*free, b[:0])
}
