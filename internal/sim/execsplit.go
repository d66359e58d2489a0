package sim

import (
	"fmt"

	"tsplit/internal/core"
	"tsplit/internal/graph"
	"tsplit/internal/memorypool"
)

// microOutSize returns the size of output micro-part k when outB bytes
// split into pn parts of microOut (the last part absorbs remainder).
func microOutSize(outB, microOut int64, pn, k int) int64 {
	if k == pn-1 {
		return outB - microOut*int64(pn-1)
	}
	return microOut
}

// microOnHost reports whether t is one of the split's micro-restored
// inputs that was on the host when the op started (s.microOn snapshot).
func (s *Simulator) microOnHost(sp core.OpSplit, t *graph.Tensor) bool {
	for mi, m := range sp.MicroIns {
		if m == t && s.microOn[mi] {
			return true
		}
	}
	return false
}

// execSplit executes an operator as a sequence of p_num
// micro-operators (paper Sec. V-A): carved inputs are partitioned in
// place and freed (or streamed out) micro-part by micro-part as they
// are consumed, micro-restored inputs stream in from the host one part
// at a time, output micro-tensors accumulate and are merged, and
// EarlyOut outputs begin their swap-out transfer while the remaining
// micro-operators still execute.
//
// Output reassembly follows core.MergeModeFor: staged into the carved
// input's freed slots (Fig. 8 memory reuse), staged through the
// restore region of a same-size saved input, or — when neither reuse
// applies — a physical merge copy into a fresh block.
func (s *Simulator) execSplit(i int, op *graph.Op, sp core.OpSplit) error {
	pn := sp.PNum
	in, out := core.SplitTensors(op, sp.Dim)
	if in == nil || out == nil || pn < 2 {
		return s.execWhole(i, op)
	}
	s.pin(op)

	mode := core.MergeModeFor(op, sp)
	stageTensor := core.RestoreStageTensor(op, sp)

	// Snapshot which micro-restored inputs stream from the host. State
	// cannot change between here and their per-part stream-ins (micro
	// tensors are never carved: carving requires onDevice).
	s.microOn = grow(s.microOn, len(sp.MicroIns))
	nMicro := 0
	for mi, t := range sp.MicroIns {
		if s.state[t.ID] == onHost {
			s.microOn[mi] = true
			nMicro++
		}
	}
	if mode == core.MergeRestoreInPlace && (stageTensor == nil || !s.microOnHost(sp, stageTensor)) {
		mode = core.MergePhysical
		stageTensor = nil
	}

	// Whole inputs (weights, non-streamable activations).
	ready := s.tc
	for _, t := range op.Inputs {
		if s.microOnHost(sp, t) || s.skipInput(op, t) {
			continue
		}
		r, err := s.ensureInput(t, s.tc)
		if err != nil {
			return err
		}
		if r > ready {
			ready = r
		}
	}
	readyIn := ready

	// Carve evict-as-consumed inputs in place. The partitions live in
	// the reusable carve buffers.
	if cap(s.carvedIns) < 2 {
		s.carvedIns = make([]carvedInput, 0, 2)
	}
	carvedIns := s.carvedIns[:0]
	if sp.InOpt != core.Reside {
		carveSrc := [2]*graph.Tensor{in, sp.In2}
		for ci, t := range carveSrc {
			if t == nil || s.state[t.ID] != onDevice {
				continue
			}
			blocks, err := s.pool.SplitUsedInto(s.block[t.ID], pn, s.carveBuf[ci][:0])
			if err != nil {
				continue // too small to carve; keep whole
			}
			s.carveBuf[ci] = blocks
			s.block[t.ID] = memorypool.Block{}
			carvedIns = append(carvedIns, carvedInput{t, blocks})
		}
	}
	if mode == core.MergeCarveInPlace && (len(carvedIns) == 0 || carvedIns[0].t != in) {
		mode = core.MergePhysical
	}

	perPart, _ := s.Cost.SplitTimes(op, pn)
	if op.EffectiveKind() == graph.BatchNorm {
		// Micro-tensor batch normalization: a second pass finalizes
		// the batch statistics before normalizing each micro-tensor.
		perPart += float64(in.Bytes()) / float64(pn) / s.Dev.MemBandwidth
	}
	if s.noise != nil {
		// The same misprediction factor applies to every micro-op of
		// the split (they are the same kernel on smaller tensors).
		np := perPart * s.noise[i]
		s.res.Faults.OpNoiseSeconds += (np - perPart) * float64(pn)
		perPart = np
	}

	var wsBlock memorypool.Block
	if ws := op.Workspace / int64(pn); ws > 0 {
		blk, r, err := s.allocWait(ws, ready)
		if err != nil {
			return err
		}
		ready = r
		wsBlock = blk
	}
	// Reduction outputs (e.g. dW of a sample-split conv backward)
	// accumulate across micro-operators: full-size from the start.
	for _, o := range op.Outputs {
		if o == out {
			continue
		}
		blk, r, err := s.allocWait(o.Bytes(), ready)
		if err != nil {
			return err
		}
		ready = r
		s.block[o.ID] = blk
		s.state[o.ID] = onDevice
	}

	earlyOut := false
	if sp.EarlyOut && s.planned[out.ID] && s.tplans[out.ID].Opt == core.Swap {
		earlyOut = true
	}

	outB := out.Bytes()
	microOut := outB / int64(pn)

	// Merge-mode set-up.
	var restoreSlots []memorypool.Block // MergeRestoreInPlace region
	var stageBuf memorypool.Block       // staging buffer for both in-place modes
	switch mode {
	case core.MergeRestoreInPlace:
		region, r, err := s.allocWait(outB, ready)
		if err != nil {
			return err
		}
		ready = r
		slots, err := s.pool.SplitUsedInto(region, pn, s.restoreSlots[:0])
		if err != nil {
			return err
		}
		s.restoreSlots = slots
		restoreSlots = slots
	case core.MergeCarveInPlace:
		// Verify the carved slots fit the staged micro-outputs.
		for k, blk := range carvedIns[0].blocks {
			if blk.Size < microOutSize(outB, microOut, pn, k) {
				mode = core.MergePhysical
				break
			}
		}
	}
	if mode != core.MergePhysical {
		blk, r, err := s.allocWait(microOut+memorypool.Alignment, ready)
		if err != nil {
			mode = core.MergePhysical
		} else {
			ready = r
			stageBuf = blk
		}
	}
	if mode == core.MergePhysical && restoreSlots != nil {
		// Release the unusable region; fall back to scattered allocs.
		for _, blk := range restoreSlots {
			s.pool.FreeBlock(blk)
		}
		restoreSlots = nil
	}

	if cap(s.outBlocks) < pn {
		s.outBlocks = make([]memorypool.Block, 0, 2*pn)
	}
	if cap(s.microBlocks) < len(sp.MicroIns) {
		s.microBlocks = make([]memorypool.Block, 0, 2*len(sp.MicroIns))
	}
	outBlocks := s.outBlocks[:0]
	for k := 0; k < pn; k++ {
		osz := microOutSize(outB, microOut, pn, k)
		kready := ready
		// Stream in this micro-part of each micro-restored input. The
		// stage tensor's slice lands directly in slot k of the output
		// region; others use scratch blocks freed after the micro-op.
		microBlocks := s.microBlocks[:0]
		for mi, t := range sp.MicroIns {
			if !s.microOn[mi] {
				continue
			}
			part := t.Bytes() / int64(pn)
			if mode != core.MergeRestoreInPlace || t != stageTensor {
				blk, r, err := s.allocWait(part, kready)
				if err != nil {
					return err
				}
				if r > kready {
					kready = r
				}
				microBlocks = append(microBlocks, blk)
			}
			start := s.th
			if kready > start {
				start = kready
			}
			dur := s.xfer(part)
			s.th = start + dur
			s.res.H2DBusy += dur
			s.res.SwapInBytes += part
			if s.th > kready {
				kready = s.th
			}
		}

		outBlocks = append(outBlocks, memorypool.Block{})
		if mode == core.MergePhysical {
			blk, r, err := s.allocWait(osz, kready)
			if err != nil {
				return err
			}
			outBlocks[k] = blk
			if r > kready {
				kready = r
			}
		}

		start := s.tc
		if kready > start {
			start = kready
		}
		if k == 0 {
			s.chargeStall(start, readyIn)
		} else if st := start - s.tc; st > 0 {
			// Later micro-parts wait on the streaming restore (when one
			// is active) or on pool memory.
			if nMicro > 0 {
				s.res.InputStallTime += st
			} else {
				s.res.AllocStallTime += st
			}
		}
		end := start + perPart
		s.tc = end
		s.res.ComputeTime += perPart

		// Retire this micro-part of the carved inputs; in carve-staging
		// mode the primary input's freed slot receives the staged
		// micro-output (one micro-sized copy).
		for _, c := range carvedIns {
			blk := c.blocks[k]
			switch {
			case mode == core.MergeCarveInPlace && c.t == in:
				off := s.pool.OffsetOf(blk)
				s.pool.FreeBlock(blk)
				ab, err := s.pool.AllocAt(off, osz)
				if err != nil {
					ab, _, err = s.allocWait(osz, s.tc)
					if err != nil {
						return err
					}
				}
				s.chargeCopy(osz)
				outBlocks[k] = ab
			case sp.InOpt == core.Swap:
				ds := s.td
				if end > ds {
					ds = end
				}
				dur := s.xfer(blk.Size)
				s.td = ds + dur
				s.res.D2HBusy += dur
				s.res.SwapOutBytes += blk.Size
				s.pushPending(s.td, blk, c.t)
			default:
				s.pool.FreeBlock(blk)
			}
		}
		if mode == core.MergeRestoreInPlace {
			// Overwrite slot k (holding the consumed restore slice)
			// with the staged micro-output.
			s.chargeCopy(osz)
			outBlocks[k] = restoreSlots[k]
		}
		for _, b := range microBlocks {
			s.pool.FreeBlock(b)
		}
		if earlyOut {
			ds := s.td
			if end > ds {
				ds = end
			}
			dur := s.xfer(osz)
			s.td = ds + dur
			s.res.D2HBusy += dur
			s.res.SwapOutBytes += osz
		}
	}

	// Carved inputs have fully left the device.
	for _, c := range carvedIns {
		switch {
		case sp.InOpt == core.Swap:
			s.state[c.t.ID] = onHost
		case s.remaining[c.t.ID] > 1 || s.hasUseAfter(c.t, i):
			s.state[c.t.ID] = dropped
		default:
			s.state[c.t.ID] = freed
		}
	}

	if stageBuf.Size > 0 {
		s.pool.FreeBlock(stageBuf)
	}

	// Merge the output micro-tensors for the (unsplit) consumer.
	if merged, ok := s.pool.MergeUsed(outBlocks); ok {
		s.block[out.ID] = merged
	} else {
		blk, r, err := s.allocWait(outB, s.tc)
		if err != nil {
			return fmt.Errorf("merging %s: %w", out.Name, err)
		}
		if r > s.tc {
			s.res.AllocStallTime += r - s.tc
			s.tc = r
		}
		s.chargeCopy(outB)
		for _, b := range outBlocks {
			s.pool.FreeBlock(b)
		}
		s.block[out.ID] = blk
	}
	s.state[out.ID] = onDevice
	if earlyOut {
		s.earlyCopied[out.ID] = true
	}
	if wsBlock.Size > 0 {
		s.pool.FreeBlock(wsBlock)
	}
	s.readyAt[out.ID] = s.tc
	for _, o := range op.Outputs {
		s.readyAt[o.ID] = s.tc
	}
	if s.Opts.CollectTimeline {
		s.res.Timeline = append(s.res.Timeline, TimelinePoint{
			OpIndex: i, Name: op.Name + fmt.Sprintf("[split %d]", pn),
			Start: ready, End: s.tc, MemUsed: s.pool.InUse(), FragBytes: s.fragBytes(),
		})
	}
	return nil
}

// chargeCopy advances the compute stream by a device-to-device copy of
// the given size.
func (s *Simulator) chargeCopy(bytes int64) {
	t := float64(bytes) / s.Dev.MemBandwidth
	s.tc += t
	s.res.ComputeTime += t
}

// hasUseAfter reports whether t has any consumer scheduled after i.
func (s *Simulator) hasUseAfter(t *graph.Tensor, i int) bool {
	for _, c := range t.Consumers {
		if int(s.schedIdx[c.ID]) > i {
			return true
		}
	}
	return false
}
