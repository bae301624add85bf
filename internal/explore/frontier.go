package explore

import (
	"sync"

	"threads/internal/checker"
)

// This file shards one context bound's schedule space across a worker
// pool. A single serial "probe" engine expands the root into work items —
// forced prefixes whose subtrees partition the space — until there are
// several per worker; workers then exhaust the subtrees independently with
// engine.dfs, and the first violation cancels the rest of the pool through
// boundShared.done.
//
// Determinism: a probe run of an item follows the default past its prefix,
// so it is the leftmost schedule of the item's subtree, and the probe
// counts it; every other child along the run becomes a work item. Every
// maximal path is therefore run and counted by exactly one engine, and the
// merged per-bound schedule counts are independent of the worker count.
// With sleep sets on, workers rebuild the sleep/done state of their prefix
// (engine.buildPrefixPath), so pruning decisions — and therefore counts —
// also match the serial search. A shared state cache stays sound but makes
// hit counts (and so schedule counts) timing-dependent. Which violation is
// reported can vary with scheduling; replay and minimization of the one
// reported stay single-threaded and deterministic.

// exploreBoundParallel runs one context bound on a worker pool. The probe
// runs on the caller's goroutine, on its runner h; each worker holds its
// own.
func exploreBoundParallel(lit *checker.Litmus, o *Options, sh *boundShared, k, workers int, h *runner) boundResult {
	var out boundResult
	probe := newEngine(lit, o, sh, k, h)
	work := [][]int{nil} // work items: forced prefixes partitioning the space
	for len(work) > 0 && len(work) < workers*4 {
		if sh.expired() {
			out.budgetHit = true
			break
		}
		probe.forced = append(probe.forced[:0], work[0]...)
		work = work[1:]
		res := probe.run(0)
		out.runs++
		out.decisions += len(res.Decisions)
		switch {
		case res.Violation != nil:
			r := res
			out.violation = &r
			sh.signalStop()
			return out
		case res.Aborted:
			out.ks.CacheHits++
		default:
			out.ks.Schedules++
			out.ks.MaxDepth = max(out.ks.MaxDepth, len(res.Decisions))
		}
		work = probe.splitAlong(res.Decisions, len(probe.forced), work, &out.ks.Pruned)
	}
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
			h := newRunner()
			defer h.close()
			en := newEngine(lit, o, sh, k, h)
			var acc boundResult
			for prefix := range itemCh {
				r := en.dfs(prefix)
				acc.merge(r)
				if r.violation != nil {
					break // the engine's recorder and runner now back the violation
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

// splitAlong appends to work one item for every child along the probe's
// latest run, from depth n down, other than the run's own (default)
// choice: each affordable, non-slept alternative at each node. With the
// run itself they partition the subtree of the run's prefix; a run the
// state cache cut short leaves only the nodes it reached. It adds each
// node's sleep-pruned alternatives to *pruned (no worker scans these
// nodes), with the chosen child done, exactly as at exhaustion in the
// serial search.
func (en *engine) splitAlong(dec []Decision, n int, work [][]int, pruned *int) [][]int {
	if n >= len(dec) {
		return work
	}
	ns := en.expansionNode(dec, n)
	for ; n < len(dec); n++ {
		d := &dec[n]
		ns.done = idBit(d.CandIDs[d.Chosen])
		*pruned += countSlept(d, ns, en.k)
		for _, c := range alternatives(d, ns, en.k) {
			child := make([]int, n+1)
			for j := range n {
				child[j] = dec[j].Chosen
			}
			child[n] = c
			work = append(work, child)
		}
		ns = nodeState{sleep: inheritSleep(ns, d)}
	}
	return work
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

// alternatives lists the children the serial search would explore at a
// node of the probe's run besides the run's own (default) choice: every
// affordable, non-slept alternative, in canonical order.
func alternatives(d *Decision, ns nodeState, k int) []int {
	var out []int
	for i := range d.CandIDs {
		if i != d.Chosen && ns.sleep&idBit(d.CandIDs[i]) == 0 && d.affordable(i, k) {
			out = append(out, i)
		}
	}
	return out
}
