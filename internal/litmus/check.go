package litmus

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The axiomatic checker. From the committed execution extracted out of a
// trace stream (trace.CommittedARs) it derives the classic relations —
//
//	po  per-core order of committed regions / accesses
//	rf  reads-from, resolved exactly by value matching (the corpus and the
//	    tagged fuzz generator write a distinct value per store; loads whose
//	    value matches several stores are counted ambiguous and excluded)
//	co  coherence order: for each location, the order stores reach memory.
//	    Speculative and CL commits drain their store queue synchronously at
//	    the commit record's stream position and fallback stores write
//	    through under the global lock, so stream order of the covering
//	    commits (with intra-region program order as tie-break) is the
//	    memory order — co is total by construction, and the axioms below
//	    decide whether it is *consistent* with what the loads observed
//	fr  from-reads: rf⁻¹ ; co
//
// and checks the two axioms the machine promises:
//
//	coherence       for every location, po-loc ∪ rf ∪ co ∪ fr is acyclic
//	                (SC per location, access granularity)
//	serializability po ∪ rf ∪ co ∪ fr over whole committed regions is
//	                acyclic (the AR-granularity SC the paper's single-
//	                serialization-point commit provides)
//
// On violation the minimal witness cycle is reported edge by edge. The
// point of deriving rf from observed values rather than replaying: a lost
// invalidation lets a region commit a read of an overwritten value, which
// shows up here as an fr edge pointing backwards in commit order (a cycle)
// even when the final memory image equals a serial replay's.

// Violation kinds.
const (
	// KindForwarding: a load after a same-region store to the same address
	// did not observe that store (store-queue forwarding broke).
	KindForwarding = "sq-forwarding"
	// KindThinAir: a load observed a value no store wrote and that is not
	// the location's initial value.
	KindThinAir = "thin-air-read"
	// KindCoherence: po-loc ∪ rf ∪ co ∪ fr has a cycle at one location.
	KindCoherence = "coherence"
	// KindSerializability: po ∪ rf ∪ co ∪ fr over committed regions has a
	// cycle.
	KindSerializability = "serializability"
	// KindCommitOrder: commit records were not tick-monotonic in stream
	// order (the stream itself is corrupt).
	KindCommitOrder = "commit-order"
)

// maxViolations caps the report; pathological streams would otherwise
// produce one violation per access.
const maxViolations = 16

// Violation is one axiom failure with its rendered witness.
type Violation struct {
	Kind string
	Msg  string
	// Cycle is the minimal witness cycle, one rendered edge per line
	// (empty for non-cycle violations).
	Cycle []string
}

func (v Violation) String() string {
	s := v.Kind + ": " + v.Msg
	if len(v.Cycle) > 0 {
		s += "\n      " + strings.Join(v.Cycle, "\n      ")
	}
	return s
}

// Verdict is the checker's result over one execution.
type Verdict struct {
	ARs    int
	Loads  int
	Stores int
	// AmbiguousLoads were excluded from rf/fr derivation because their
	// value matched more than one store (streams from workloads without
	// unique store values); they weaken coverage but never produce false
	// violations.
	AmbiguousLoads int
	Violations     []Violation
	// Truncated reports that violations beyond maxViolations were dropped.
	Truncated bool
}

// OK reports whether the execution conforms.
func (v Verdict) OK() bool { return len(v.Violations) == 0 && !v.Truncated }

func (v Verdict) String() string {
	if v.OK() {
		amb := ""
		if v.AmbiguousLoads > 0 {
			amb = fmt.Sprintf(", %d ambiguous loads excluded", v.AmbiguousLoads)
		}
		return fmt.Sprintf("conformant: %d committed ARs, %d loads, %d stores%s",
			v.ARs, v.Loads, v.Stores, amb)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "NOT conformant: %d violation(s) over %d committed ARs",
		len(v.Violations), v.ARs)
	if v.Truncated {
		b.WriteString(" (truncated)")
	}
	for _, vi := range v.Violations {
		fmt.Fprintf(&b, "\n  %s", vi)
	}
	return b.String()
}

// CheckOpts parameterizes a check.
type CheckOpts struct {
	// Initial gives the initial memory contents (nil = all zero). Needed
	// to resolve loads that executed before any store to their location.
	Initial func(mem.Addr) uint64
	// AddrName renders addresses in witnesses (nil = hex). The litmus
	// runner plugs in location names here.
	AddrName func(mem.Addr) string
}

// CheckEvents extracts the committed execution from an event stream and
// checks it. The stream must carry memory accesses (Options.MemAccesses).
func CheckEvents(events []trace.Event, o CheckOpts) Verdict {
	return checkStream(events, trace.CommittedARs(events), o)
}

// checkStream checks ars, the committed execution already extracted from
// events, and the order of the stream's commit records.
func checkStream(events []trace.Event, ars []trace.CommittedAR, o CheckOpts) Verdict {
	v := CheckARs(ars, o)
	var prev sim.Tick
	for _, e := range events {
		if e.Kind != trace.KindCommit {
			continue
		}
		if e.Tick < prev {
			v.add(Violation{Kind: KindCommitOrder, Msg: fmt.Sprintf(
				"commit at tick %d after commit at tick %d in stream order", e.Tick, prev)})
		}
		prev = e.Tick
	}
	return v
}

func (v *Verdict) add(vi Violation) {
	if len(v.Violations) >= maxViolations {
		v.Truncated = true
		return
	}
	v.Violations = append(v.Violations, vi)
}

// rf source classification of one load.
const (
	srcNone = iota // thin air: matches nothing
	srcAmbiguous
	srcInit
	srcStore
)

type accRef struct{ ar, idx int }

type rfInfo struct {
	kind     int
	src      accRef // valid for srcStore
	internal bool   // source is a same-region earlier store (SQ forwarding)
}

// edge is one relation edge in a (node-indexed) graph.
type edge struct {
	from, to int
	kind     string
	addr     mem.Addr
	addrName string
	hasAddr  bool
}

// CheckARs checks an already-extracted committed execution.
func CheckARs(ars []trace.CommittedAR, o CheckOpts) Verdict {
	initial := o.Initial
	if initial == nil {
		initial = func(mem.Addr) uint64 { return 0 }
	}
	aname := o.AddrName
	if aname == nil {
		aname = mem.Addr.String
	}

	v := Verdict{ARs: len(ars)}

	// Index every store by address, in (commit order, program order) —
	// which is exactly the coherence order (see the package comment).
	storesAt := map[mem.Addr][]accRef{}
	var addrs []mem.Addr
	seenAddr := map[mem.Addr]bool{}
	for ai, ar := range ars {
		for i, a := range ar.Accesses {
			if !seenAddr[a.Addr] {
				seenAddr[a.Addr] = true
				addrs = append(addrs, a.Addr)
			}
			if a.IsWrite {
				v.Stores++
				storesAt[a.Addr] = append(storesAt[a.Addr], accRef{ai, i})
			} else {
				v.Loads++
			}
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	// Resolve rf for every load.
	rfs := make([][]rfInfo, len(ars))
	for ai, ar := range ars {
		rfs[ai] = make([]rfInfo, len(ar.Accesses))
		for i, a := range ar.Accesses {
			if a.IsWrite {
				continue
			}
			// Same-region earlier store: the store queue must forward it.
			fwd := -1
			for j := i - 1; j >= 0; j-- {
				if ar.Accesses[j].IsWrite && ar.Accesses[j].Addr == a.Addr {
					fwd = j
					break
				}
			}
			if fwd >= 0 {
				rfs[ai][i] = rfInfo{kind: srcStore, src: accRef{ai, fwd}, internal: true}
				if want := ar.Accesses[fwd].Value; want != a.Value {
					v.add(Violation{Kind: KindForwarding, Msg: fmt.Sprintf(
						"%s: load %s=%d did not forward the region's own store %s=%d",
						ars[ai], aname(a.Addr), a.Value, aname(a.Addr), want)})
				}
				continue
			}
			// External read: match by value against other regions' stores
			// and the initial image.
			var cands []accRef
			for _, s := range storesAt[a.Addr] {
				if s.ar != ai && ars[s.ar].Accesses[s.idx].Value == a.Value {
					cands = append(cands, s)
				}
			}
			fromInit := initial(a.Addr) == a.Value
			switch {
			case len(cands) == 0 && !fromInit:
				rfs[ai][i] = rfInfo{kind: srcNone}
				v.add(Violation{Kind: KindThinAir, Msg: fmt.Sprintf(
					"%s: load %s=%d matches no store and not the initial value %d",
					ars[ai], aname(a.Addr), a.Value, initial(a.Addr))})
			case len(cands) == 0:
				rfs[ai][i] = rfInfo{kind: srcInit}
			case len(cands) == 1 && !fromInit:
				rfs[ai][i] = rfInfo{kind: srcStore, src: cands[0]}
			default:
				rfs[ai][i] = rfInfo{kind: srcAmbiguous}
				v.AmbiguousLoads++
			}
		}
	}

	// Per-location coherence: po-loc ∪ rf ∪ co ∪ fr acyclic at access
	// granularity, with a virtual node for the initial value.
	for _, a := range addrs {
		if cyc := coherenceCycle(ars, rfs, a); cyc != nil {
			v.add(Violation{
				Kind: KindCoherence,
				Msg: fmt.Sprintf("SC-per-location violated at %s: %d-edge cycle in po-loc ∪ rf ∪ co ∪ fr",
					aname(a), len(cyc.edges)),
				Cycle: cyc.render(),
			})
		}
	}

	// AR-granularity serializability: po ∪ rf ∪ co ∪ fr over committed
	// regions acyclic.
	if cyc := serializabilityCycle(ars, rfs, storesAt, aname); cyc != nil {
		v.add(Violation{
			Kind: KindSerializability,
			Msg: fmt.Sprintf("committed regions are not serializable: %d-edge cycle in po ∪ rf ∪ co ∪ fr",
				len(cyc.edges)),
			Cycle: cyc.render(),
		})
	}
	return v
}

// witness couples a cycle with its node renderer.
type witness struct {
	edges []edge
	label func(int) string
}

func (w *witness) render() []string {
	out := make([]string, 0, len(w.edges))
	for _, e := range w.edges {
		rel := e.kind
		if e.hasAddr {
			rel = fmt.Sprintf("%s[%s]", e.kind, e.addrName)
		}
		out = append(out, fmt.Sprintf("%s --%s--> %s", w.label(e.from), rel, w.label(e.to)))
	}
	return out
}

// serializabilityCycle builds the AR-level graph and hunts for a cycle.
func serializabilityCycle(ars []trace.CommittedAR, rfs [][]rfInfo, storesAt map[mem.Addr][]accRef, aname func(mem.Addr) string) *witness {
	n := len(ars)
	adj := make([][]edge, n)
	add := func(from, to int, kind string, addr mem.Addr, hasAddr bool) {
		if from == to {
			return
		}
		e := edge{from: from, to: to, kind: kind, addr: addr, hasAddr: hasAddr}
		if hasAddr {
			e.addrName = aname(addr)
		}
		adj[from] = append(adj[from], e)
	}

	// po: per-core commit order (cores are sequential, so this is program
	// order over regions).
	last := map[int]int{}
	for ai, ar := range ars {
		if p, ok := last[ar.Core]; ok {
			add(p, ai, "po", 0, false)
		}
		last[ar.Core] = ai
	}

	// co: per location, the distinct writer regions in commit order.
	writers := map[mem.Addr][]int{}
	writerPos := map[mem.Addr]map[int]int{}
	for a, ss := range storesAt {
		pos := map[int]int{}
		var ws []int
		for _, s := range ss {
			if _, dup := pos[s.ar]; !dup {
				pos[s.ar] = len(ws)
				ws = append(ws, s.ar)
			}
		}
		writers[a], writerPos[a] = ws, pos
		for k := 0; k+1 < len(ws); k++ {
			add(ws[k], ws[k+1], "co", a, true)
		}
	}

	// rf (external) and fr.
	for ai, ar := range ars {
		for i, acc := range ar.Accesses {
			if acc.IsWrite {
				continue
			}
			rf := rfs[ai][i]
			switch rf.kind {
			case srcStore:
				if rf.internal {
					continue // own-store forward: covered by co reachability
				}
				add(rf.src.ar, ai, "rf", acc.Addr, true)
				// fr: the first writer coherence-after the source that is
				// not this region (the co chain covers the rest).
				ws := writers[acc.Addr]
				for k := writerPos[acc.Addr][rf.src.ar] + 1; k < len(ws); k++ {
					if ws[k] != ai {
						add(ai, ws[k], "fr", acc.Addr, true)
						break
					}
				}
			case srcInit:
				// Read the initial value: every writer is coherence-after.
				for _, w := range writers[acc.Addr] {
					if w != ai {
						add(ai, w, "fr", acc.Addr, true)
						break
					}
				}
			}
		}
	}

	cyc := shortestCycle(n, adj)
	if cyc == nil {
		return nil
	}
	return &witness{edges: cyc, label: func(i int) string { return ars[i].String() }}
}

// coherenceCycle builds the access-level graph of one location and hunts
// for a cycle. Node 0 is the virtual initial store; accesses follow in
// (commit order, program order).
func coherenceCycle(ars []trace.CommittedAR, rfs [][]rfInfo, a mem.Addr) *witness {
	type node struct {
		ref  accRef
		init bool
	}
	nodes := []node{{init: true}}
	id := map[accRef]int{}
	for ai, ar := range ars {
		for i, acc := range ar.Accesses {
			if acc.Addr == a {
				id[accRef{ai, i}] = len(nodes)
				nodes = append(nodes, node{ref: accRef{ai, i}})
			}
		}
	}
	if len(nodes) <= 2 {
		return nil // one access cannot form a cycle with init
	}
	adj := make([][]edge, len(nodes))
	add := func(from, to int, kind string) {
		if from != to {
			adj[from] = append(adj[from], edge{from: from, to: to, kind: kind})
		}
	}

	// po-loc: per core, accesses to a in (commit, program) order.
	lastByCore := map[int]int{}
	// co: stores in (commit, program) order, chained from init.
	prevStore := 0
	var stores []int
	for ni := 1; ni < len(nodes); ni++ {
		r := nodes[ni].ref
		acc := ars[r.ar].Accesses[r.idx]
		core := ars[r.ar].Core
		if p, ok := lastByCore[core]; ok {
			add(p, ni, "po-loc")
		}
		lastByCore[core] = ni
		if acc.IsWrite {
			add(prevStore, ni, "co")
			prevStore = ni
			stores = append(stores, ni)
		}
	}

	// rf and fr from the resolved sources.
	for ni := 1; ni < len(nodes); ni++ {
		r := nodes[ni].ref
		acc := ars[r.ar].Accesses[r.idx]
		if acc.IsWrite {
			continue
		}
		var srcNode int
		switch rfs[r.ar][r.idx].kind {
		case srcStore:
			srcNode = id[rfs[r.ar][r.idx].src]
		case srcInit:
			srcNode = 0
		default:
			continue // ambiguous or thin air: no edges
		}
		add(srcNode, ni, "rf")
		// fr: the next store in co after the source.
		for _, s := range stores {
			if s > srcNode {
				add(ni, s, "fr")
				break
			}
		}
	}

	cyc := shortestCycle(len(nodes), adj)
	if cyc == nil {
		return nil
	}
	label := func(i int) string {
		if nodes[i].init {
			return "initial value"
		}
		r := nodes[i].ref
		acc := ars[r.ar].Accesses[r.idx]
		op := "ld"
		if acc.IsWrite {
			op = "st"
		}
		return fmt.Sprintf("core %d %s =%d @%d (inv#%d)",
			ars[r.ar].Core, op, acc.Value, acc.Tick, ars[r.ar].CommitSeq)
	}
	return &witness{edges: cyc, label: label}
}

// shortestCycle returns a minimal-length cycle of the graph, or nil if it
// is acyclic: BFS from every node, closing the cycle on the first edge back
// to the start. Litmus graphs have tens of nodes, so the quadratic hunt is
// fine — and it only runs when a run is already doomed or tiny.
func shortestCycle(n int, adj [][]edge) []edge {
	var best []edge
	for s := 0; s < n; s++ {
		pe := make([]*edge, n)
		vis := make([]bool, n)
		vis[s] = true
		queue := []int{s}
		var found []edge
		for len(queue) > 0 && found == nil {
			u := queue[0]
			queue = queue[1:]
			for k := range adj[u] {
				e := adj[u][k]
				if e.to == s {
					found = append(found, e)
					for v := u; v != s; {
						p := pe[v]
						found = append(found, *p)
						v = p.from
					}
					for i, j := 0, len(found)-1; i < j; i, j = i+1, j-1 {
						found[i], found[j] = found[j], found[i]
					}
					break
				}
				if !vis[e.to] {
					vis[e.to] = true
					ec := e
					pe[e.to] = &ec
					queue = append(queue, e.to)
				}
			}
		}
		if found != nil && (best == nil || len(found) < len(best)) {
			best = found
		}
	}
	return best
}
