package explore

import (
	"sync"

	"threads/internal/checker"
	"threads/internal/sim"
)

// This file shards one context bound's schedule space across a worker
// pool. A single serial "probe" engine expands the root into work items —
// forced prefixes whose subtrees partition the space — until there are
// several per worker; workers then exhaust the subtrees independently with
// engine.dfs, a shared atomic counter enforces MaxSchedules, and the first
// violation cancels the rest of the pool through boundShared.done.
//
// Determinism: a probe run that still branches past its prefix is not
// counted as a schedule (the worker owning the chosen child re-runs and
// counts it), so every maximal path is counted by exactly one engine and
// the merged per-bound schedule counts are independent of the worker
// count. A probe run that does not branch is counted by the probe. With
// sleep sets on, workers rebuild the sleep/done state of their prefix
// (engine.buildPrefixPath), so pruning decisions — and therefore counts —
// also match the serial search. A shared state cache stays sound but makes
// hit counts (and so schedule counts) timing-dependent. Which violation is
// reported can vary with scheduling; replay and minimization of the one
// reported stay single-threaded and deterministic.

// exploreBoundParallel runs one context bound on a worker pool. The probe
// runs on the caller's goroutine, on its carriers.
func exploreBoundParallel(lit *checker.Litmus, o *Options, sh *boundShared, k, workers int, carriers *sim.Carriers) boundResult {
	var out boundResult
	probe := newEngine(lit, o, sh, k, carriers)
	queue := [][]int{nil} // work items: forced prefixes partitioning the space
	var work [][]int
	target := workers * 4
	for len(queue) > 0 && len(queue)+len(work) < target {
		if sh.expired() {
			out.budgetHit = true
			break
		}
		prefix := queue[0]
		queue = queue[1:]
		probe.rec.reset(prefix)
		res := runProgram(lit, &probe.rec, carriers)
		out.runs++
		out.decisions += len(res.Decisions)
		if res.Violation != nil {
			r := res
			out.violation = &r
			sh.countSchedule()
			out.ks.Schedules++
			out.ks.MaxDepth = max(out.ks.MaxDepth, len(res.Decisions))
			sh.signalStop()
			return out
		}
		if res.Aborted {
			out.ks.CacheHits++
			continue // the whole subtree is cache-covered
		}
		// Split at the first decision past the prefix that branches. The
		// probe followed the default past the prefix; each affordable,
		// non-slept alternative there (default included) becomes a child
		// item. This run itself is NOT counted: the worker owning the
		// default child will re-run it.
		dec := res.Decisions
		n, children := probe.branchPast(dec, len(prefix), &out.ks.Pruned)
		if children == nil {
			// Nothing past the prefix branches: this run is the subtree's
			// only schedule.
			sh.countSchedule()
			out.ks.Schedules++
			out.ks.MaxDepth = max(out.ks.MaxDepth, len(dec))
			continue
		}
		for _, c := range children {
			child := make([]int, n+1)
			for j := range n {
				child[j] = dec[j].Chosen
			}
			child[n] = c
			queue = append(queue, child)
		}
	}
	work = append(work, queue...)
	if len(work) == 0 {
		return out
	}

	itemCh := make(chan []int)
	results := make([]boundResult, workers)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			var carriers sim.Carriers
			defer carriers.Close()
			en := newEngine(lit, o, sh, k, &carriers)
			var acc boundResult
			for prefix := range itemCh {
				r := en.dfs(prefix)
				acc.merge(r)
				if r.violation != nil {
					break // the engine's arenas now back the violation
				}
			}
			results[wi] = acc
		}(wi)
	}
	for _, prefix := range work {
		select {
		case itemCh <- prefix:
		case <-sh.done:
		}
		if sh.stopped() {
			break
		}
	}
	close(itemCh)
	wg.Wait()
	for _, r := range results {
		out.merge(r)
	}
	return out
}

// branchPast walks the probe's latest run down from depth n while each
// node has a single child, the run's own (default) choice, and returns the
// first node with several children: its depth and its expandChoices. At
// the run's end it returns nil children. It adds each node's sleep-pruned
// alternatives to *pruned (no worker scans these nodes), with the chosen
// child done, exactly as at exhaustion in the serial search.
func (en *engine) branchPast(dec []Decision, n int, pruned *int) (int, []int) {
	if n >= len(dec) {
		return n, nil
	}
	ns := en.expansionNode(dec, n)
	for ; n < len(dec); n++ {
		d := &dec[n]
		ns.done = idBit(d.CandIDs[d.Chosen])
		*pruned += countSlept(d, ns, en.k)
		if ch := expandChoices(d, ns, en.k); len(ch) > 1 {
			return n, ch
		}
		ns = nodeState{sleep: inheritSleep(ns, d)}
	}
	return n, nil
}

// expansionNode reconstructs the sleep state at depth n of the probe's
// latest run (the first node past a work item's prefix).
func (en *engine) expansionNode(dec []Decision, n int) nodeState {
	if !en.rec.por {
		return nodeState{}
	}
	en.path = en.path[:0]
	en.buildPrefixPath(dec, n)
	var ns nodeState
	if n > 0 {
		ns.sleep = inheritSleep(en.path[n-1], &dec[n-1])
	}
	return ns
}

// expandChoices lists the children the serial search would explore at an
// expansion node, in exploration order: the probe's (default) choice
// first, then every affordable, non-slept alternative in canonical order.
func expandChoices(d *Decision, ns nodeState, k int) []int {
	out := []int{d.Chosen}
	for i := range d.CandIDs {
		if i == d.Chosen {
			continue
		}
		if ns.sleep&idBit(d.CandIDs[i]) != 0 {
			continue
		}
		cost := 0
		if d.PrevRunnable && i != d.Default {
			cost = 1
		}
		if d.CumPre+cost <= k {
			out = append(out, i)
		}
	}
	return out
}
