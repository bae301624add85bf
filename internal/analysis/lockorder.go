package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds a static per-package lock-acquisition graph and reports
// cycles as potential deadlocks. The specification gives Acquire a blocking
// WHEN m = NIL guard and no ordering discipline of its own, so the classic
// two-thread interleaving — thread 1 holds A and blocks on B, thread 2
// holds B and blocks on A — leaves both WHEN guards false forever. Every
// site that acquires a lock while another is held (nested Acquire,
// threads.Lock bodies) contributes an edge held → acquired, with locks
// named class-wide (receiver fields unify across methods, package-level
// mutexes globally; see RefKey). A cycle in the graph is a lock-order
// inversion some schedule can turn into deadlock.
//
// Acquiring a lock inside a callee — declared in this package or any other
// package of the analyzed program — also closes edges from locks held at
// the call site: the Program's function summaries, which the other
// interprocedural analyzers build anyway, record which class-keyed locks
// each function acquires transitively over the cross-package call graph.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "report cycles in the static lock-acquisition order as potential " +
		"deadlocks (paper, Mutexes: Acquire WHEN m = NIL blocks until the " +
		"holder releases — a cycle blocks forever)",
	Run: runLockOrder,
}

// lockEdge is one held → acquired observation.
type lockEdge struct {
	to      string
	toDisp  string
	fromPos token.Pos // where `from` was acquired is not retained; pos is this edge's site
	detail  string    // "" for direct edges, "via call to f" through a callee
}

func runLockOrder(pass *Pass) error {
	// adj[from][to] = first edge observed; disp[key] = display name.
	adj := make(map[string]map[string]lockEdge)
	disp := make(map[string]string)

	addEdge := func(from, fromDisp, to, toDisp string, pos token.Pos, detail string) {
		if from == "" || to == "" || from == to {
			return
		}
		disp[from], disp[to] = fromDisp, toDisp
		m, ok := adj[from]
		if !ok {
			m = make(map[string]lockEdge)
			adj[from] = m
		}
		if _, dup := m[to]; !dup {
			m[to] = lockEdge{to: to, toDisp: toDisp, fromPos: pos, detail: detail}
		}
	}

	var sums *Summaries
	if pass.Prog != nil {
		sums = pass.Prog.Summaries()
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			w := &seqWalker{pass: pass}
			w.client = seqClient{
				call: func(site *CallSite, ref lockRef, st *holds) {
					if site.Op != OpAcquire && site.Op != OpLock {
						return
					}
					if !ref.ok || ref.classKey == "" {
						return
					}
					for _, h := range heldLocks(st) {
						addEdge(h.ref.classKey, h.ref.display, ref.classKey, ref.display,
							site.Call.Pos(), "")
					}
				},
				node: func(n ast.Node, st *holds) bool {
					if sums == nil {
						return true
					}
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if _, tracked := pass.Site(call); tracked {
						return true // direct edges already cover it
					}
					fn, ok := Callee(pass.Pkg.Info, call).(*types.Func)
					if !ok {
						return true
					}
					if sub := sums.effects(fn); sub != nil {
						for to, ri := range sub.Acquires {
							for _, h := range heldLocks(st) {
								addEdge(h.ref.classKey, h.ref.display, to, ri.Display,
									call.Pos(), fmt.Sprintf("via call to %s", fn.Name()))
							}
						}
					}
					return true
				},
			}
			w.walkFunc(fd)
		}
	}

	reportLockCycles(pass, adj, disp)
	return nil
}

func heldLocks(st *holds) []holdInfo {
	var out []holdInfo
	for _, h := range st.def {
		if h.ref.ok && h.ref.classKey != "" && h.site.Face != FaceSpin {
			out = append(out, h)
		}
	}
	for _, h := range st.maybe {
		if h.ref.ok && h.ref.classKey != "" && h.site.Face != FaceSpin {
			out = append(out, h)
		}
	}
	return out
}

// reportLockCycles finds cycles in the acquisition graph and reports each
// once, printed edge by edge with the site that created each edge.
func reportLockCycles(pass *Pass, adj map[string]map[string]lockEdge, disp map[string]string) {
	nodes := make([]string, 0, len(adj))
	for k := range adj {
		nodes = append(nodes, k)
	}
	sort.Strings(nodes)

	reported := make(map[string]bool) // canonical cycle id → done
	var stack []string
	onStack := make(map[string]int)
	var visit func(string)
	visited := make(map[string]bool)

	visit = func(n string) {
		if idx, ok := onStack[n]; ok {
			cycle := append([]string{}, stack[idx:]...)
			id := canonicalCycle(cycle)
			if reported[id] {
				return
			}
			reported[id] = true
			reportCycle(pass, cycle, adj, disp)
			return
		}
		if visited[n] {
			return
		}
		visited[n] = true
		onStack[n] = len(stack)
		stack = append(stack, n)
		tos := make([]string, 0, len(adj[n]))
		for to := range adj[n] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			visit(to)
		}
		stack = stack[:len(stack)-1]
		delete(onStack, n)
	}
	for _, n := range nodes {
		visit(n)
	}
}

func canonicalCycle(cycle []string) string {
	// Rotate so the lexically smallest key leads; the id is then unique per
	// cyclic sequence.
	min := 0
	for i := range cycle {
		if cycle[i] < cycle[min] {
			min = i
		}
	}
	rotated := append(append([]string{}, cycle[min:]...), cycle[:min]...)
	return strings.Join(rotated, "→")
}

func reportCycle(pass *Pass, cycle []string, adj map[string]map[string]lockEdge, disp map[string]string) {
	var b strings.Builder
	var firstPos token.Pos
	for i := range cycle {
		from := cycle[i]
		to := cycle[(i+1)%len(cycle)]
		e := adj[from][to]
		if i == 0 {
			firstPos = e.fromPos
			fmt.Fprintf(&b, "%s", disp[from])
		}
		fmt.Fprintf(&b, " → %s (%s", disp[to], pass.Fset.Position(e.fromPos))
		if e.detail != "" {
			fmt.Fprintf(&b, ", %s", e.detail)
		}
		b.WriteString(")")
	}
	pass.Reportf(firstPos,
		"potential deadlock: lock-acquisition cycle %s: two threads acquiring "+
			"around the cycle block on each other's WHEN m = NIL forever "+
			"(paper, Mutexes); acquire these locks in one global order", b.String())
}
