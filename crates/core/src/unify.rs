//! Unification of partition symbols (Section 3.2, Algorithm 3).
//!
//! Inference assigns a separate symbol to every region access, which admits
//! the widest range of strategies but produces solutions with many
//! equivalent partitions. Unification merges symbols whose constraints are
//! isomorphic:
//!
//! 1. **Chain collapse** (the paper's Example 4): an access symbol whose
//!    only lower bound is another symbol of the same region (`P ⊆ P'`)
//!    merges into it. This is what turns Figure 6's `P1 ⊆ P2 ∧ P1 ⊆ P4`
//!    into a single Particles partition, and deduplicates repeated accesses
//!    along the same pointer chain.
//! 2. **Common-subgraph unification** (Algorithm 3), one greedy pass: each
//!    program loop's constraint graph — nodes are symbols/externals, an
//!    edge `u →f v` encodes `image(u, f, R) ⊆ v`, an unlabeled edge
//!    `u → v` encodes `u ⊆ v` — is matched against the graph of the
//!    external facts and the loops before it, largest common subgraph
//!    first (`match_group`).
//!    External constraints (Section 3.3) participate as a graph whose nodes
//!    are fixed: unifying a symbol with an external discharges the matched
//!    obligations against the user's invariant.
//! 3. **Fact matching** and 4. **edge-less iteration symbols** bind symbols
//!    to externals that graph matching cannot reach.
//!
//! Stages 2–4 commit through one rule (`State::try_pairs`): unite the
//! candidate's pairs, skipping those already united, and keep the result
//! only if the rewritten system is still solvable (Algorithm 2).
//!
//! All graph construction and system rewriting works on interned
//! [`ExprId`]s: node identity, tautology pruning, and fact discharge are
//! O(1) id comparisons on canonical forms, and obligation dedup uses hash
//! sets of id-carrying [`Pred`]/[`Subset`] values.

use crate::infer::Inference;
use crate::lang::{Expr, ExprId, ExtId, FnRef, PSym, Pred, Subset, System};
use crate::solve::{solve_since, SolveBudget, SolveStats};
use partir_dpl::func::FnTable;
use partir_dpl::region::RegionId;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// What a symbol resolved to after unification.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rep {
    /// The symbol is its own representative.
    SelfSym,
    /// Merged into another symbol.
    Sym(PSym),
    /// Bound to an external partition.
    Ext(ExtId),
}

/// Counters describing the unification search (product-graph sizes and the
/// fate of every candidate merge). Accumulated unconditionally — plain
/// integer adds, no observability branching.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnifyStats {
    /// Stage-1 merges (single-lower-bound chains collapsed).
    pub chain_collapses: u64,
    /// Candidate common subgraphs examined across all stages.
    pub candidates_considered: u64,
    /// Candidate merges committed.
    pub merges_accepted: u64,
    /// Candidates dropped before the solver ran (degenerate mapping).
    pub rejected_structural: u64,
    /// Candidates whose rewritten system the solver refuted — or did not
    /// solve within the request's budget: a trial that comes back
    /// degraded refuses its merge (fewer merges, never a wrong plan).
    pub rejected_unsolvable: u64,
    /// Of those, the trials that ran out of budget. Any such refusal
    /// makes the call's plan degraded: it may have fewer merges than an
    /// unbudgeted call finds.
    pub rejected_over_budget: u64,
    /// Largest accumulated constraint graph seen (nodes / edges).
    pub max_graph_nodes: u64,
    pub max_graph_edges: u64,
}

/// One committed merge, for the explanation trace.
#[derive(Clone, Debug)]
pub struct MergeEntry {
    /// Which stage committed it: `chain`, `graph`, `fact`, or `iter-ext`.
    pub stage: &'static str,
    /// Human-readable description, e.g. `P3 -> P1` or `P5 -> ext(pCells)`.
    pub detail: String,
}

/// The result of unification: a rewritten system plus the symbol mapping.
#[derive(Clone, Debug, Default)]
pub struct Unified {
    pub system: System,
    pub rep: Vec<Rep>,
    /// Number of symbols eliminated.
    pub merged: usize,
    /// Solver work spent on consistency checks.
    pub check_stats: SolveStats,
    /// Unification search counters.
    pub stats: UnifyStats,
    /// Every committed merge, in commit order.
    pub merge_log: Vec<MergeEntry>,
}

impl Unified {
    /// Resolves a symbol to its representative: itself, the root symbol
    /// it was merged into, or an external (`rep` holds roots).
    pub fn resolve(&self, s: PSym) -> ExprId {
        let arena = &self.system.arena;
        match self.rep[s.0 as usize] {
            Rep::SelfSym => arena.sym(s),
            Rep::Sym(t) => arena.sym(t),
            Rep::Ext(x) => arena.ext(x),
        }
    }
}

/// Union-find over symbols with optional external roots.
struct Uf {
    parent: Vec<Rep>,
}

impl Uf {
    fn new(n: usize) -> Self {
        Uf { parent: vec![Rep::SelfSym; n] }
    }

    fn find(&self, s: PSym) -> Rep {
        match self.parent[s.0 as usize] {
            Rep::SelfSym => Rep::Sym(s),
            Rep::Sym(t) => self.find(t),
            Rep::Ext(x) => Rep::Ext(x),
        }
    }

    /// Resolves an expression's symbol leaves to representatives,
    /// re-interning the result.
    fn rewrite(&self, system: &System, e: ExprId) -> ExprId {
        let arena = &system.arena;
        arena.map_syms(e, &|s| match self.find(s) {
            Rep::Sym(t) => arena.sym(t),
            Rep::Ext(x) => arena.ext(x),
            Rep::SelfSym => unreachable!(),
        })
    }

    /// Merges `b` into `a` (a stays representative). `a` may be an external.
    /// Returns whether anything changed: false when `b` is already united
    /// with `a` or bound to an external.
    fn union(&mut self, a: Rep, b: PSym) -> bool {
        match (a, self.find(b)) {
            (x, Rep::Sym(sb)) if x != Rep::Sym(sb) => {
                self.parent[sb.0 as usize] = x;
                true
            }
            _ => false,
        }
    }

    /// Unites a matched pair of graph nodes; whether anything changed.
    fn unite(&mut self, pair: (GNode, GNode)) -> bool {
        match pair {
            (GNode::Sym(a), GNode::Sym(b)) => self.union(self.find(a), b),
            (GNode::Ext(x), GNode::Sym(b)) | (GNode::Sym(b), GNode::Ext(x)) => {
                self.union(Rep::Ext(x), b)
            }
            (GNode::Ext(_), GNode::Ext(_)) => false,
        }
    }
}

/// A node in a constraint graph.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum GNode {
    Sym(PSym),
    Ext(ExtId),
}

/// A constraint graph: edges labeled with the image function (`None` for a
/// plain subset edge).
#[derive(Clone, Debug, Default)]
struct CGraph {
    nodes: Vec<(GNode, RegionId)>,
    edges: Vec<(usize, usize, Option<FnRef>)>,
}

impl CGraph {
    fn node_index(&mut self, n: GNode, region: RegionId) -> usize {
        if let Some(i) = self.nodes.iter().position(|&(m, _)| m == n) {
            return i;
        }
        self.nodes.push((n, region));
        self.nodes.len() - 1
    }
}

/// Builds the constraint graph of a set of subset constraints, rewritten
/// through the union-find.
fn build_graph(subsets: &[Subset], system: &System, uf: &Uf) -> CGraph {
    let arena = &system.arena;
    let mut g = CGraph::default();
    for s in subsets {
        let lhs = uf.rewrite(system, s.lhs);
        let rhs = uf.rewrite(system, s.rhs);
        let dst = match arena.node(rhs) {
            Expr::Sym(p) => GNode::Sym(p),
            Expr::Ext(x) => GNode::Ext(x),
            _ => continue,
        };
        let dst_region = match system.expr_region(rhs) {
            Some(r) => r,
            None => continue,
        };
        match arena.node(lhs) {
            Expr::Sym(p) => {
                let r = system.sym_region(p);
                let si = g.node_index(GNode::Sym(p), r);
                let di = g.node_index(dst, dst_region);
                g.edges.push((si, di, None));
            }
            Expr::Ext(x) => {
                let r = system.ext_region(x);
                let si = g.node_index(GNode::Ext(x), r);
                let di = g.node_index(dst, dst_region);
                g.edges.push((si, di, None));
            }
            Expr::Image { src, f, .. } => {
                let (src_node, src_region) = match arena.node(src) {
                    Expr::Sym(p) => (GNode::Sym(p), system.sym_region(p)),
                    Expr::Ext(x) => (GNode::Ext(x), system.ext_region(x)),
                    _ => continue,
                };
                let si = g.node_index(src_node, src_region);
                let di = g.node_index(dst, dst_region);
                g.edges.push((si, di, Some(f)));
            }
            _ => continue,
        }
    }
    g
}

/// A candidate unification: pairs of (accumulated-graph node, new-graph
/// node) with the number of matched edges.
#[derive(Clone, Debug)]
struct Match {
    pairs: Vec<(GNode, GNode)>,
    edge_count: usize,
}

/// Enumerates candidate common subgraphs between `a` and `b`, greedily
/// grown from each compatible edge pair, sorted by matched-edge count
/// (descending).
fn candidate_matches(a: &CGraph, b: &CGraph) -> Vec<Match> {
    let compatible = |(na, ra): (GNode, RegionId), (nb, rb): (GNode, RegionId)| -> bool {
        if ra != rb {
            return false;
        }
        match (na, nb) {
            (GNode::Ext(x), GNode::Ext(y)) => x == y,
            _ => true,
        }
    };
    let mut out: Vec<Match> = Vec::new();
    for (i, &(sa, da, la)) in a.edges.iter().enumerate() {
        for &(sb, db, lb) in &b.edges {
            if la != lb {
                continue;
            }
            if !compatible(a.nodes[sa], b.nodes[sb]) || !compatible(a.nodes[da], b.nodes[db]) {
                continue;
            }
            // Grow a mapping from this seed.
            let mut map: BTreeMap<usize, usize> = BTreeMap::new();
            let mut rmap: BTreeMap<usize, usize> = BTreeMap::new();
            map.insert(sa, sb);
            rmap.insert(sb, sa);
            if sa != da {
                map.insert(da, db);
                rmap.insert(db, da);
            } else if db != sb {
                continue; // self-loop mismatch
            }
            let mut matched = vec![i];
            let mut changed = true;
            while changed {
                changed = false;
                for (j, &(xa, ya, l1)) in a.edges.iter().enumerate() {
                    if matched.contains(&j) {
                        continue;
                    }
                    for &(xb, yb, l2) in &b.edges {
                        if l1 != l2 {
                            continue;
                        }
                        // Extend only if consistent with the mapping and at
                        // least one endpoint already mapped.
                        let x_ok = match map.get(&xa) {
                            Some(&m) => m == xb,
                            None => !rmap.contains_key(&xb) && compatible(a.nodes[xa], b.nodes[xb]),
                        };
                        let y_ok = match map.get(&ya) {
                            Some(&m) => m == yb,
                            None => !rmap.contains_key(&yb) && compatible(a.nodes[ya], b.nodes[yb]),
                        };
                        let anchored = map.contains_key(&xa) || map.contains_key(&ya);
                        if x_ok && y_ok && anchored {
                            map.insert(xa, xb);
                            rmap.insert(xb, xa);
                            map.insert(ya, yb);
                            rmap.insert(yb, ya);
                            matched.push(j);
                            changed = true;
                            break;
                        }
                    }
                }
            }
            let pairs: Vec<(GNode, GNode)> =
                map.iter().map(|(&ia, &ib)| (a.nodes[ia].0, b.nodes[ib].0)).collect();
            out.push(Match { pairs, edge_count: matched.len() });
        }
    }
    out.sort_by_key(|m| std::cmp::Reverse(m.edge_count));
    // Deduplicate identical pair sets.
    out.dedup_by(|x, y| x.pairs == y.pairs);
    out
}

/// Produces the rewritten system under a union-find, deduplicating
/// obligations and dropping tautologies (both O(1) id comparisons on
/// canonical forms).
fn rewrite_system(system: &System, uf: &Uf) -> System {
    let mut out = system.clone();
    out.pred_obligations.clear();
    out.subset_obligations.clear();
    let mut seen_preds: HashSet<Pred> = HashSet::new();
    for p in &system.pred_obligations {
        let q = match p {
            Pred::Part(e, r) => Pred::Part(uf.rewrite(system, *e), *r),
            Pred::Disj(e) => Pred::Disj(uf.rewrite(system, *e)),
            Pred::Comp(e, r) => Pred::Comp(uf.rewrite(system, *e), *r),
        };
        if seen_preds.insert(q) {
            out.pred_obligations.push(q);
        }
    }
    let mut seen_subs: HashSet<Subset> = HashSet::new();
    for s in &system.subset_obligations {
        let q = Subset { lhs: uf.rewrite(system, s.lhs), rhs: uf.rewrite(system, s.rhs) };
        if q.lhs == q.rhs {
            continue;
        }
        // Obligations that became identical to declared facts are
        // discharged by the user invariant.
        if system.subset_facts.iter().any(|f| f.lhs == q.lhs && f.rhs == q.rhs) {
            continue;
        }
        if seen_subs.insert(q) {
            out.subset_obligations.push(q);
        }
    }
    out
}

/// The solver's forced bindings under a unification whose root of each
/// symbol is `root`: symbols bound to external partitions stay fixed. Serves
/// the trial solves here and the pipeline's solves alike.
pub(crate) fn forced_bindings(
    system: &System,
    root: impl Fn(PSym) -> Rep,
) -> HashMap<PSym, ExprId> {
    (0..system.num_syms() as u32)
        .map(PSym)
        .filter_map(|s| match root(s) {
            Rep::Ext(x) => Some((s, system.arena.ext(x))),
            _ => None,
        })
        .collect()
}

/// Renders a matched pair set for merge-log entries.
fn describe_pairs(pairs: &[(GNode, GNode)], system: &System) -> String {
    pairs
        .iter()
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("{}~{}", node_desc(*a, system), node_desc(*b, system)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders a graph node for merge-log entries.
fn node_desc(n: GNode, system: &System) -> String {
    match n {
        GNode::Sym(p) => format!("{p:?}"),
        GNode::Ext(x) => format!("ext({})", system.externals[x.0 as usize].name),
    }
}

/// What the stages share: the committed union-find and the running
/// account of the search.
struct State<'a> {
    system: &'a System,
    fns: &'a FnTable,
    /// Every trial solves under this budget, on the request's clock.
    budget: SolveBudget,
    start: Instant,
    uf: Uf,
    check_stats: SolveStats,
    stats: UnifyStats,
    merge_log: Vec<MergeEntry>,
}

impl State<'_> {
    /// The one way a stage commits: counts the candidate, unites its
    /// `pairs` on a copy of the committed union-find (skipping pairs
    /// already united), and checks the result with [`Self::try_merge`].
    /// A candidate that unites nothing is rejected as structural.
    fn try_pairs(
        &mut self,
        stage: &'static str,
        pairs: &[(GNode, GNode)],
        detail: impl FnOnce() -> String,
    ) -> bool {
        self.stats.candidates_considered += 1;
        let mut trial = Uf { parent: self.uf.parent.clone() };
        let mut any = false;
        for &pair in pairs {
            any |= trial.unite(pair);
        }
        if !any {
            self.stats.rejected_structural += 1;
            return false;
        }
        self.try_merge(trial, stage, detail)
    }

    /// Commits `trial` if the system rewritten under it is still solvable
    /// (Algorithm 2, with symbols bound to externals held fixed) within
    /// the budget, logging it as a `stage` merge; otherwise counts it as
    /// refuted.
    fn try_merge(
        &mut self,
        trial: Uf,
        stage: &'static str,
        detail: impl FnOnce() -> String,
    ) -> bool {
        let trial_system = rewrite_system(self.system, &trial);
        let forced = forced_bindings(self.system, |s| trial.find(s));
        match solve_since(&trial_system, self.fns, &forced, &self.budget, self.start) {
            Ok(sol) if !sol.degraded => {
                self.check_stats.absorb(&sol.stats);
                self.stats.merges_accepted += 1;
                self.merge_log.push(MergeEntry { stage, detail: detail() });
                self.uf = trial;
                true
            }
            refused => {
                self.stats.rejected_unsolvable += 1;
                self.stats.rejected_over_budget += u64::from(refused.is_ok());
                false
            }
        }
    }
}

/// How many of a group's largest candidate subgraphs are tried before the
/// group is left as it stands.
const MAX_TRIES: usize = 8;

/// Algorithm 3 for one loop's constraints: match `group`'s graph against
/// the accumulated graph `acc` and commit the largest common subgraph that
/// stays solvable, again and again until none of the first [`MAX_TRIES`]
/// candidates commits.
fn match_group(st: &mut State, acc: &[Subset], group: &[Subset]) {
    // Nothing to match against (a lone loop without facts): build nothing.
    if acc.is_empty() {
        return;
    }
    loop {
        let ga = build_graph(acc, st.system, &st.uf);
        let gb = build_graph(group, st.system, &st.uf);
        st.stats.max_graph_nodes = st.stats.max_graph_nodes.max(ga.nodes.len() as u64);
        st.stats.max_graph_edges = st.stats.max_graph_edges.max(ga.edges.len() as u64);
        let system = st.system;
        let committed = candidate_matches(&ga, &gb)
            .into_iter()
            .take(MAX_TRIES)
            .any(|m| st.try_pairs("graph", &m.pairs, || describe_pairs(&m.pairs, system)));
        if !committed {
            return;
        }
    }
}

/// Runs every unification stage over an inference result, with no budget.
pub fn unify(inference: &Inference, fns: &FnTable) -> Unified {
    unify_within(inference, fns, SolveBudget::unlimited(), Instant::now())
}

/// [`unify`] with every consistency check under `budget`, its deadline
/// counted from `start`.
pub(crate) fn unify_within(
    inference: &Inference,
    fns: &FnTable,
    budget: SolveBudget,
    start: Instant,
) -> Unified {
    let system = &inference.system;
    let arena = system.arena.clone();
    let n = system.num_syms();
    let mut st = State {
        system,
        fns,
        budget,
        start,
        uf: Uf::new(n),
        check_stats: SolveStats::default(),
        stats: UnifyStats::default(),
        merge_log: Vec::new(),
    };

    // ---- Stage 1: chain collapse (Example 4). ----
    // Count lower bounds per symbol, in symbol order, so the merge log is
    // the same on every run.
    let mut bounds: BTreeMap<PSym, Vec<ExprId>> = BTreeMap::new();
    for s in &system.subset_obligations {
        if let Expr::Sym(p) = arena.node(s.rhs) {
            bounds.entry(p).or_default().push(s.lhs);
        }
    }
    // Merge symbols whose single lower bound is a plain symbol of the same
    // region. Iterate to fixpoint (chains collapse transitively via find()).
    for (p, bs) in &bounds {
        if bs.len() == 1 {
            if let Expr::Sym(base) = arena.node(bs[0]) {
                if system.sym_region(base) == system.sym_region(*p) {
                    let rep = st.uf.find(base);
                    // `union` refuses a self-merge, so no cycle forms.
                    if st.uf.union(rep, *p) {
                        st.stats.chain_collapses += 1;
                        let dst = match rep {
                            Rep::Sym(t) => node_desc(GNode::Sym(t), system),
                            Rep::Ext(x) => node_desc(GNode::Ext(x), system),
                            Rep::SelfSym => unreachable!(),
                        };
                        st.merge_log
                            .push(MergeEntry { stage: "chain", detail: format!("{p:?} -> {dst}") });
                    }
                }
            }
        }
    }

    // ---- Stage 2: Algorithm 3 (inter-loop + external unification). ----
    // Per-loop constraint sets, sorted by size descending.
    let mut groups: Vec<Vec<Subset>> = inference
        .loops
        .iter()
        .map(|l| l.span.subsets.iter().map(|&i| system.subset_obligations[i]).collect())
        .collect();
    groups.sort_by_key(|g: &Vec<Subset>| std::cmp::Reverse(g.len()));

    // The accumulated constraint set starts with the external facts, and
    // each group joins it after it is matched. The largest group seeds it
    // unmatched, unless it is also the last: a lone group is matched
    // against the facts.
    let mut acc: Vec<Subset> = system.subset_facts.clone();
    for (gi, group) in groups.iter().enumerate() {
        if gi > 0 || gi + 1 == groups.len() {
            match_group(&mut st, &acc, group);
        }
        acc.extend(group.iter().copied());
    }

    // ---- Stage 3: direct fact matching. ----
    // Graph matching cannot express unifications where a fact's edge is a
    // self-loop on an external (PENNANT's recursive side-neighbor
    // invariants `image(rs_p, mapss3, rs) ⊆ rs_p`): the product mapping
    // would need one node on two targets. Handle those directly: an
    // obligation `E ⊆ P` whose rewritten lhs `E` is closed and canonically
    // equal (same id) to a fact's lhs, with the fact's rhs an external,
    // unifies `P := that external` (checked for solvability like any
    // unification).
    // Each commit rewrites the obligations, so the scan restarts after one.
    'scan: loop {
        let obligations: Vec<Subset> = system
            .subset_obligations
            .iter()
            .map(|s| Subset {
                lhs: st.uf.rewrite(system, s.lhs),
                rhs: st.uf.rewrite(system, s.rhs),
            })
            .collect();
        for o in &obligations {
            let Expr::Sym(p) = arena.node(o.rhs) else { continue };
            if !arena.is_closed(o.lhs) {
                continue;
            }
            for fact in &system.subset_facts {
                let fact_lhs = st.uf.rewrite(system, fact.lhs);
                if fact_lhs != o.lhs {
                    continue;
                }
                let Expr::Ext(y) = arena.node(st.uf.rewrite(system, fact.rhs)) else { continue };
                if system.ext_region(y) != system.sym_region(p) {
                    continue;
                }
                let pair = (GNode::Ext(y), GNode::Sym(p));
                let detail = || format!("{p:?} -> {}", node_desc(GNode::Ext(y), system));
                if st.try_pairs("fact", &[pair], detail) {
                    continue 'scan;
                }
            }
        }
        break;
    }

    // ---- Stage 4: edge-less iteration symbols. ----
    // A loop whose accesses are all centered (e.g. PENNANT's point/zone
    // update loops) contributes no subset edges, so graph matching never
    // connects its iteration symbol to the user's partitions. Maximal
    // unification still wants them merged: try each declared external of
    // the same region, in declaration order, keeping the first that leaves
    // the system solvable (the consistency check proves the external
    // satisfies COMP — and DISJ where required — from the declared facts).
    for il in &inference.loops {
        let s = il.iter_sym;
        if st.uf.find(s) != Rep::Sym(s) {
            continue; // already unified
        }
        let region = system.sym_region(s);
        // Loops with centered reductions need a disjoint iteration
        // partition at runtime, so only provably-disjoint externals
        // qualify for them.
        let needs_disjoint =
            il.summary.accesses.iter().any(|a| a.kind.is_reduce() && a.is_centered());
        for (xi, ext) in system.externals.iter().enumerate() {
            if ext.region != region {
                continue;
            }
            let x = crate::lang::ExtId(xi as u32);
            if needs_disjoint {
                let ctx = crate::lemmas::FactCtx::new(system, fns);
                if !crate::lemmas::prove_disj(arena.ext(x), &ctx) {
                    continue;
                }
            }
            let pair = (GNode::Ext(x), GNode::Sym(s));
            let detail = || format!("{s:?} -> {}", node_desc(GNode::Ext(x), system));
            if st.try_pairs("iter-ext", &[pair], detail) {
                break;
            }
        }
    }

    let State { uf, check_stats, stats: ustats, merge_log, .. } = st;
    let rewritten = rewrite_system(system, &uf);
    let rep: Vec<Rep> = (0..n)
        .map(|i| {
            let s = PSym(i as u32);
            match uf.find(s) {
                Rep::Sym(t) if t == s => Rep::SelfSym,
                other => other,
            }
        })
        .collect();
    let merged = rep.iter().filter(|r| !matches!(r, Rep::SelfSym)).count();
    if partir_obs::trace_enabled() {
        for m in &merge_log {
            partir_obs::instant(
                "unify.merge",
                vec![("stage", m.stage.into()), ("pairs", m.detail.clone().into())],
            );
        }
        partir_obs::instant(
            "unify.done",
            vec![
                ("merged", (merged as u64).into()),
                ("chain_collapses", ustats.chain_collapses.into()),
                ("candidates", ustats.candidates_considered.into()),
                ("accepted", ustats.merges_accepted.into()),
                ("rejected_structural", ustats.rejected_structural.into()),
                ("rejected_unsolvable", ustats.rejected_unsolvable.into()),
                ("max_graph_nodes", ustats.max_graph_nodes.into()),
                ("max_graph_edges", ustats.max_graph_edges.into()),
            ],
        );
    }
    Unified { system: rewritten, rep, merged, check_stats, stats: ustats, merge_log }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::infer;
    use crate::lang::PExpr;
    use partir_dpl::region::{FieldKind, Schema};
    use partir_ir::ast::{LoopBuilder, ReduceOp, VExpr};

    /// Figure 1a both loops; checks the Figure 9 unification.
    #[test]
    fn figure9_unifies_cells_partitions_across_loops() {
        let mut schema = Schema::new();
        let cells = schema.add_region("Cells", 100);
        let particles = schema.add_region("Particles", 1000);
        let cell_f = schema.add_field(particles, "cell", FieldKind::Ptr(cells));
        let pos = schema.add_field(particles, "pos", FieldKind::F64);
        let vel = schema.add_field(cells, "vel", FieldKind::F64);
        let acc = schema.add_field(cells, "acc", FieldKind::F64);
        let mut fns = FnTable::new();
        let fcell = fns.add_ptr_field("cell", particles, cells, cell_f);
        let h = fns.add(
            "h",
            cells,
            cells,
            partir_dpl::func::FnDef::Index(partir_dpl::func::IndexFn::AffineMod {
                mul: 1,
                add: 1,
                modulus: 100,
            }),
        );

        let mut b = LoopBuilder::new("particles", particles);
        let p = b.loop_var();
        let c = b.idx_read(particles, cell_f, p, fcell);
        let v1 = b.val_read(cells, vel, c);
        let hc = b.idx_apply(h, c);
        let v2 = b.val_read(cells, vel, hc);
        b.val_reduce(particles, pos, p, ReduceOp::Add, VExpr::add(VExpr::var(v1), VExpr::var(v2)));
        let l1 = b.finish();

        let mut b = LoopBuilder::new("cells", cells);
        let cv = b.loop_var();
        let a1 = b.val_read(cells, acc, cv);
        let hc = b.idx_apply(h, cv);
        let a2 = b.val_read(cells, acc, hc);
        b.val_reduce(cells, vel, cv, ReduceOp::Add, VExpr::add(VExpr::var(a1), VExpr::var(a2)));
        let l2 = b.finish();

        let inf = infer(&[l1, l2], &fns, &schema).unwrap();
        let uni = unify(&inf, &fns);

        // Loop 1's Cells[c] access unifies with loop 2's iteration symbol
        // (both are partitions of Cells constrained by the same h-edge), and
        // the two h-image accesses unify.
        let p2 = inf.loops[0].access_syms[1]; // Cells[c].vel
        let p3 = inf.loops[0].access_syms[2]; // Cells[h(c)].vel
        let l2_iter = inf.loops[1].iter_sym;
        let l2_h = inf.loops[1].access_syms[1]; // Cells[h(c)].acc
        let r_p2 = uni.resolve(p2);
        let r_iter2 = uni.resolve(l2_iter);
        assert_eq!(r_p2, r_iter2, "P2 and P4 unified (Figure 9b)");
        assert_eq!(uni.resolve(p3), uni.resolve(l2_h), "P3 and P5 unified");

        // The rewritten system is solvable and produces Program B shapes.
        let sol = crate::solve::solve(&uni.system, &fns).expect("solvable after unification");
        // All centered Particles accesses share the iteration partition.
        let iter1 = inf.loops[0].iter_sym;
        let cell_read = inf.loops[0].access_syms[0];
        assert_eq!(uni.resolve(cell_read), uni.resolve(iter1));
        // Fewest partitions: Particles preimage + Cells equal + Cells image.
        let resolved: std::collections::BTreeSet<ExprId> = (0..inf.system.num_syms())
            .map(|i| {
                let e = uni.resolve(PSym(i as u32));
                match uni.system.arena.node(e) {
                    Expr::Sym(s) => sol.id_for(s),
                    _ => e,
                }
            })
            .collect();
        assert_eq!(resolved.len(), 3, "{resolved:?}");
    }

    /// Example 6: unification against external facts discharges constraints.
    #[test]
    fn example6_external_unification() {
        let mut schema = Schema::new();
        let cells = schema.add_region("Cells", 100);
        let particles = schema.add_region("Particles", 1000);
        let cell_f = schema.add_field(particles, "cell", FieldKind::Ptr(cells));
        let pos = schema.add_field(particles, "pos", FieldKind::F64);
        let vel = schema.add_field(cells, "vel", FieldKind::F64);
        let mut fns = FnTable::new();
        let fcell = fns.add_ptr_field("cell", particles, cells, cell_f);
        let h = fns.add(
            "h",
            cells,
            cells,
            partir_dpl::func::FnDef::Index(partir_dpl::func::IndexFn::AffineMod {
                mul: 1,
                add: 1,
                modulus: 100,
            }),
        );

        let mut b = LoopBuilder::new("particles", particles);
        let p = b.loop_var();
        let c = b.idx_read(particles, cell_f, p, fcell);
        let v1 = b.val_read(cells, vel, c);
        let hc = b.idx_apply(h, c);
        let v2 = b.val_read(cells, vel, hc);
        b.val_reduce(particles, pos, p, ReduceOp::Add, VExpr::add(VExpr::var(v1), VExpr::var(v2)));
        let l1 = b.finish();

        let mut inf = infer(&[l1], &fns, &schema).unwrap();
        // User invariant: image(pParticles, cell, Cells) ⊆ pCells, with
        // pParticles disjoint+complete.
        let p_particles = inf.system.add_external("pParticles", particles);
        let p_cells = inf.system.add_external("pCells", cells);
        inf.system.assume_fact_subset(
            PExpr::image(PExpr::ext(p_particles), FnRef::Fn(fcell), cells),
            PExpr::ext(p_cells),
        );
        let pp = inf.system.intern(PExpr::ext(p_particles));
        inf.system.assume_fact_pred(Pred::Disj(pp));
        inf.system.assume_fact_pred(Pred::Comp(pp, particles));

        let uni = unify(&inf, &fns);
        let iter = inf.loops[0].iter_sym;
        let cells_acc = inf.loops[0].access_syms[1];
        assert_eq!(uni.resolve(iter), inf.system.arena.ext(p_particles), "P1 = pParticles");
        assert_eq!(uni.resolve(cells_acc), inf.system.arena.ext(p_cells), "P2 = pCells");
        // The h access remains a symbol solved as image(pCells, h, Cells).
        let sol = crate::solve::solve(&uni.system, &fns).expect("solvable");
        let h_acc = inf.loops[0].access_syms[2];
        match uni.system.arena.node(uni.resolve(h_acc)) {
            Expr::Sym(s) => {
                let want = PExpr::image(PExpr::ext(p_cells), FnRef::Fn(h), cells);
                assert_eq!(sol.id_for(s), uni.system.intern(want));
            }
            other => panic!("unexpected resolution {other:?}"),
        }
    }

    /// A pair already united (directly or through its roots) unites
    /// nothing, so a candidate is tried with its other pairs only.
    #[test]
    fn unite_skips_pairs_already_united() {
        let (p0, p1, p2) = (PSym(0), PSym(1), PSym(2));
        let mut uf = Uf::new(3);
        assert!(uf.unite((GNode::Sym(p0), GNode::Sym(p1))));
        assert!(!uf.unite((GNode::Sym(p1), GNode::Sym(p0))), "same root");
        assert!(!uf.unite((GNode::Sym(p2), GNode::Sym(p2))), "a self pair");
        assert!(uf.unite((GNode::Ext(ExtId(0)), GNode::Sym(p2))));
        assert!(!uf.unite((GNode::Sym(p2), GNode::Ext(ExtId(1)))), "already bound");
        assert!(!uf.unite((GNode::Ext(ExtId(0)), GNode::Ext(ExtId(0)))));
        assert_eq!(uf.find(p1), Rep::Sym(p0));
        assert_eq!(uf.find(p2), Rep::Ext(ExtId(0)));
    }

    /// Chain collapse merges centered access symbols into the iteration
    /// symbol (Example 4).
    #[test]
    fn chain_collapse_centered_accesses() {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 10);
        let fx = schema.add_field(r, "x", FieldKind::F64);
        let fy = schema.add_field(r, "y", FieldKind::F64);
        let fns = FnTable::new();
        let mut b = LoopBuilder::new("l", r);
        let i = b.loop_var();
        let x = b.val_read(r, fx, i);
        b.val_write(r, fy, i, VExpr::var(x));
        let lp = b.finish();
        let inf = infer(&[lp], &fns, &schema).unwrap();
        let uni = unify(&inf, &fns);
        let iter = inf.loops[0].iter_sym;
        for &a in &inf.loops[0].access_syms {
            assert_eq!(uni.resolve(a), uni.resolve(iter));
        }
        assert_eq!(uni.merged, 2);
    }
}
