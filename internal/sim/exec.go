package sim

import (
	"fmt"

	"tsplit/internal/core"
	"tsplit/internal/faults"
	"tsplit/internal/graph"
	"tsplit/internal/memorypool"
	"tsplit/internal/tensor"
)

// Run simulates one training iteration and returns the measurements.
// It returns an ErrOOM-wrapped error when the plan does not fit the
// device — the configuration "cannot train".
func (s *Simulator) Run() (Result, error) {
	res, err := s.run()
	s.observe(err)
	return res, err
}

// PredictPeak answers "does this plan fit, and at what peak" — the
// fleet packer's query. It is Run() with Obs, Trace, Flight and
// CollectTimeline off for the call, so nothing is emitted and no
// timeline is built; the peak and any OOM error are Run()'s own.
func (s *Simulator) PredictPeak() (int64, error) {
	saved := s.Opts
	s.Opts.Obs, s.Opts.Trace, s.Opts.Flight, s.Opts.CollectTimeline = nil, nil, nil, false
	res, err := s.Run()
	s.Opts = saved
	if err != nil {
		return 0, err
	}
	return res.PeakBytes, nil
}

func (s *Simulator) run() (Result, error) {
	s.reset()
	rootSpan := s.Opts.Trace.StartSpan("sim.run")
	defer rootSpan.End()
	if err := s.stageResidents(); err != nil {
		return s.res, err
	}
	var pureCompute float64
	for i, op := range s.Sched.Ops {
		// An op span left open by an error return exports with a -1
		// duration — the doctor shows exactly which op the run died in.
		osp := rootSpan.StartSpan("sim.op")
		osp.SetAttr("op", op.Name)
		s.curOp = i
		if err := s.applyFaultWindows(i); err != nil {
			return s.res, err
		}
		for _, t := range s.prefTensors[s.prefStart[i]:s.prefStart[i+1]] {
			if err := s.startSwapIn(t, s.tc); err != nil {
				return s.res, err
			}
		}
		var err error
		pureCompute += s.opTime[i]
		if si := s.splitIdx[op.ID]; si >= 0 {
			err = s.execSplit(i, op, s.Plan.Splits[si])
		} else {
			err = s.execWhole(i, op)
		}
		if err != nil {
			return s.res, fmt.Errorf("sim: op %d %s: %w", i, op, err)
		}
		s.postOp(i, op)
		s.unpin()
		osp.End()
	}
	s.res.Time = s.tc
	s.res.StallTime = s.tc - pureCompute
	if s.res.Time > 0 {
		s.res.PCIeUtilization = (s.res.D2HBusy + s.res.H2DBusy) / (2 * s.res.Time)
	}
	s.res.PeakBytes = s.pool.Stats().Peak
	return s.res, nil
}

// resident reports whether the tensor is pinned on device for the
// whole iteration under the plan (precomputed by reset).
func (s *Simulator) resident(t *graph.Tensor) bool { return s.residentB[t.ID] }

// planResident computes residency for a producer-less tensor from the
// plan; reset caches it into residentB.
func (s *Simulator) planResident(t *graph.Tensor) bool {
	switch t.Kind {
	case tensor.Parameter:
		return !s.Plan.ShardParams
	case tensor.OptState:
		return !s.Plan.OffloadOptimizer
	default:
		// Staged inputs are resident unless explicitly planned.
		return !s.planned[t.ID] || s.tplans[t.ID].Opt == core.Reside
	}
}

// stageResidents allocates parameters, optimizer state and inputs at
// time zero; sharded/offloaded tensors start on the host.
func (s *Simulator) stageResidents() error {
	for _, t := range s.G.Tensors {
		if t.Producer != nil {
			continue
		}
		if !s.resident(t) {
			s.state[t.ID] = onHost
			continue
		}
		blk, _, err := s.allocWait(t.Bytes(), 0)
		if err != nil {
			return fmt.Errorf("sim: staging %s: %w", t.Name, err)
		}
		s.state[t.ID] = onDevice
		s.block[t.ID] = blk
		s.readyAt[t.ID] = 0
	}
	return nil
}

// allocWait allocates from the pool, waiting on in-flight swap-out
// completions (and, under the LRU recompute strategy, evicting cached
// regenerations) when the pool is full. It returns the block and the
// time at which the memory is actually available.
func (s *Simulator) allocWait(bytes int64, at float64) (memorypool.Block, float64, error) {
	for {
		blk, err := s.pool.Alloc(bytes)
		if err == nil {
			return blk, at, nil
		}
		if len(s.pending) > 0 {
			ev := s.pending.pop()
			s.pool.FreeBlock(ev.block)
			if ev.at > at {
				at = ev.at
			}
			continue
		}
		if s.Opts.Recompute == LRURecompute && s.lruHead < len(s.lruCache) {
			victim := s.lruCache[s.lruHead]
			s.lruHead++
			if s.state[victim.ID] == onDevice && !s.pinned[victim.ID] {
				s.pool.FreeBlock(s.block[victim.ID])
				s.block[victim.ID] = memorypool.Block{}
				s.state[victim.ID] = dropped
			}
			continue
		}
		if s.Opts.Recompute == LRURecompute {
			// Pressure valve: regenerated tensors not touched by the
			// current operator can always be dropped and re-produced.
			// Largest first; ties broken by the ascending-ID scan.
			var victim *graph.Tensor
			for id, wr := range s.wasRecomputed {
				if !wr || s.state[id] != onDevice || s.pinned[id] {
					continue
				}
				t := s.G.Tensors[id]
				if victim == nil || t.Bytes() > victim.Bytes() {
					victim = t
				}
			}
			if victim != nil {
				s.pool.FreeBlock(s.block[victim.ID])
				s.block[victim.ID] = memorypool.Block{}
				s.state[victim.ID] = dropped
				continue
			}
		}
		if s.pool.Available() >= bytes && s.compactions < maxCompactions {
			// Pure external fragmentation: defragment the arena. The
			// pool's slots own every block's offset (the sTensor
			// indirection), so blocks migrate under every copy the
			// simulator holds, paying device-to-device copy time.
			moved := s.pool.Compact()
			if moved == 0 {
				return memorypool.Block{}, at, fmt.Errorf("%w: need %d bytes, %d in use of %d (already compact)",
					ErrOOM, bytes, s.pool.InUse(), s.pool.Capacity())
			}
			cost := 2 * float64(moved) / s.Dev.MemBandwidth // read + write
			s.tc += cost
			at += cost
			s.res.CompactTime += cost
			s.res.Compactions++
			s.compactions++
			s.res.MovedBytes += moved
			continue
		}
		return memorypool.Block{}, at, fmt.Errorf("%w: need %d bytes, %d in use of %d (pending=%d lru=%d compactions=%d)",
			ErrOOM, bytes, s.pool.InUse(), s.pool.Capacity(), len(s.pending), len(s.lruCache)-s.lruHead, s.compactions)
	}
}

// startSwapOut issues a D2H copy of t and schedules the device block
// to be freed when the copy completes. If the tensor's bytes already
// streamed out early (EarlyOut split of the producer), the block is
// freed immediately without new PCIe traffic.
func (s *Simulator) startSwapOut(t *graph.Tensor, at float64, alreadyCopied bool) {
	blk := s.block[t.ID]
	if blk.Size == 0 {
		return
	}
	switch {
	case alreadyCopied:
		s.pool.FreeBlock(blk)
	default:
		start := s.td
		if at > start {
			start = at
		}
		dur := s.xfer(t.Bytes())
		start += s.retryPenalty(t, faults.DirOut, dur)
		s.td = start + dur
		s.res.D2HBusy += dur
		s.res.SwapOutBytes += t.Bytes()
		s.pushPending(s.td, blk, t)
		if s.Opts.CollectTimeline {
			s.res.Timeline = append(s.res.Timeline, TimelinePoint{
				Name: "swapout." + t.Name, Start: start, End: s.td,
				MemUsed: s.pool.InUse(), Stream: "d2h",
				Bytes: t.Bytes(), Tensor: t.Name, FragBytes: s.fragBytes(),
			})
		}
	}
	s.block[t.ID] = memorypool.Block{}
	s.state[t.ID] = onHost
}

// startSwapIn issues an H2D copy restoring t; the tensor is usable
// when the copy completes.
func (s *Simulator) startSwapIn(t *graph.Tensor, at float64) error {
	if s.state[t.ID] != onHost {
		return nil
	}
	blk, ready, err := s.allocWait(t.Bytes(), at)
	if err != nil {
		return err
	}
	s.block[t.ID] = blk
	s.state[t.ID] = onDevice
	start := s.th
	if ready > start {
		start = ready
	}
	dur := s.xfer(t.Bytes())
	start += s.retryPenalty(t, faults.DirIn, dur)
	s.th = start + dur
	s.res.H2DBusy += dur
	s.res.SwapInBytes += t.Bytes()
	s.readyAt[t.ID] = s.th
	if s.Opts.CollectTimeline {
		s.res.Timeline = append(s.res.Timeline, TimelinePoint{
			Name: "swapin." + t.Name, Start: start, End: s.th,
			MemUsed: s.pool.InUse(), Stream: "h2d",
			Bytes: t.Bytes(), Tensor: t.Name, FragBytes: s.fragBytes(),
		})
	}
	return nil
}

// ensureInput makes t usable on device and returns the time it is
// ready.
func (s *Simulator) ensureInput(t *graph.Tensor, at float64) (float64, error) {
	switch s.state[t.ID] {
	case onDevice:
		return s.readyAt[t.ID], nil
	case onHost:
		if err := s.startSwapIn(t, at); err != nil {
			return 0, err
		}
		return s.readyAt[t.ID], nil
	case dropped:
		return s.regenerate(t, at)
	case unborn:
		return 0, fmt.Errorf("input %s used before production", t.Name)
	default:
		return 0, fmt.Errorf("input %s already freed", t.Name)
	}
}

// opDuration returns the compute-stream time of the unsplit operator
// at schedule index i, with the CPU-offload special cases.
func (s *Simulator) opDuration(i int, op *graph.Op) float64 {
	if op.Kind == graph.SGDUpdate && s.Plan.OffloadOptimizer {
		// The update runs on the CPU (ZeRO-Offload); the GPU only
		// synchronizes. Transfers are charged separately.
		return 0
	}
	return s.opTime[i]
}

// execWhole executes an unsplit operator.
func (s *Simulator) execWhole(i int, op *graph.Op) error {
	s.pin(op)
	ready := s.tc
	for _, in := range op.Inputs {
		if s.skipInput(op, in) {
			continue
		}
		r, err := s.ensureInput(in, s.tc)
		if err != nil {
			return err
		}
		if r > ready {
			ready = r
		}
	}
	readyIn := ready

	var wsBlock memorypool.Block
	if op.Workspace > 0 {
		blk, r, err := s.allocWait(op.Workspace, ready)
		if err != nil {
			return err
		}
		ready = r
		wsBlock = blk
	}
	for _, out := range op.Outputs {
		blk, r, err := s.allocWait(out.Bytes(), ready)
		if err != nil {
			return err
		}
		ready = r
		s.block[out.ID] = blk
		s.state[out.ID] = onDevice
	}

	start := s.tc
	if ready > start {
		start = ready
	}
	s.chargeStall(start, readyIn)
	dur := s.noisy(i, s.opDuration(i, op))
	end := start + dur
	s.tc = end
	s.res.ComputeTime += dur
	for _, out := range op.Outputs {
		s.readyAt[out.ID] = end
	}
	if wsBlock.Size > 0 {
		s.pool.FreeBlock(wsBlock)
	}

	// CPU-offload transfer charges.
	if op.Kind == graph.SGDUpdate && (s.Plan.OffloadOptimizer || s.Plan.ShardParams) {
		// Updated parameters return to the device for the next
		// iteration; the copy overlaps the remaining backward pass.
		p := op.Inputs[0]
		dur := s.xfer(p.Bytes())
		s.th += dur
		s.res.H2DBusy += dur
		s.res.SwapInBytes += p.Bytes()
	}

	if s.Opts.CollectTimeline {
		s.res.Timeline = append(s.res.Timeline, TimelinePoint{
			OpIndex: i, Name: op.Name, Start: start, End: end,
			MemUsed: s.pool.InUse(), FragBytes: s.fragBytes(),
		})
	}
	return nil
}

// chargeStall attributes a compute-stream wait (start > s.tc, computed
// before s.tc advances) to its cause: the part up to readyIn is input
// readiness (swap-ins and regenerations completing), the rest is
// memory availability (pool allocation waiting on in-flight frees).
func (s *Simulator) chargeStall(start, readyIn float64) {
	stall := start - s.tc
	if stall <= 0 {
		return
	}
	in := readyIn - s.tc
	if in < 0 {
		in = 0
	}
	if in > stall {
		in = stall
	}
	s.res.InputStallTime += in
	s.res.AllocStallTime += stall - in
}

// skipInput reports inputs that never materialize on device: optimizer
// state under ZeRO-Offload (lives on the CPU) and parameter gradients
// consumed by the CPU-side update.
func (s *Simulator) skipInput(op *graph.Op, in *graph.Tensor) bool {
	if op.Kind != graph.SGDUpdate || !s.Plan.OffloadOptimizer {
		return false
	}
	return in.Kind == tensor.OptState || in.Kind == tensor.ParamGrad
}
