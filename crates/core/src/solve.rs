//! The constraint solver (Algorithm 2).
//!
//! The solver transforms a partitioning constraint into *resolved form*: the
//! constraint conjoined with exactly one equality `P = E` per partition
//! symbol. The added equalities are the synthesized DPL program.
//!
//! Candidate selection follows the paper's four insights:
//!
//! 1. `image(P, f, R) ⊆ E` with closed `E` → try `P = preimage(R', f, E)`
//!    (lemma L14) — this is what reuses partitions instead of multiplying
//!    them;
//! 2. a symbol whose subset lower bounds are all closed → the union of
//!    those bounds (L13);
//! 3. a symbol carrying `DISJ` must be built from `equal` (L1) via the
//!    disjointness-preserving operators (L9, L10, L12) → try `equal(R)`,
//!    deepest symbols first;
//! 4. likewise `COMP` symbols → `equal(R)`, deepest first (completeness
//!    propagates through `equal`, `∪`, `preimage`: L1, L6, L7).
//!
//! A depth-first search with backtracking tries these candidates in order;
//! the base case checks that every remaining conjunct is entailed by the
//! lemma engine. Constraints produced by Algorithm 1 are acyclic, so the
//! trivial solution (equal partitions for iteration spaces, strengthened
//! subset constraints elsewhere) always exists; unification can introduce
//! recursive constraints, in which case the solver correctly reports
//! unsatisfiability and the unification attempt is rolled back.
//!
//! All search state lives on interned [`ExprId`]s: substitution is a
//! cache-keyed rewrite over ids (backtracking revisits the same
//! `(expression, binding-signature)` pairs, so prior work is reused
//! instead of rebuilding trees), tautology pruning is an O(1) id
//! comparison, and one lemma-memoizing [`FactCtx`] serves every base-case
//! check of a solve.

use crate::lang::{Expr, ExprId, PExpr, PSym, Pred, Subset, System};
use crate::lemmas::{entails_subset, prove_pred, FactCtx};
use partir_dpl::func::FnTable;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// A complete assignment of closed expressions to partition symbols.
#[derive(Clone, Debug, Default)]
pub struct Solution {
    /// Fully-inlined closed expression per symbol (materialized from
    /// `binding_ids` for display and API compatibility).
    pub bindings: Vec<PExpr>,
    /// Interned id per symbol binding; two symbols alias the same
    /// partition iff their ids are equal (canonical-form CSE).
    pub binding_ids: Vec<ExprId>,
    /// Which candidate rule produced each binding (indexed like `bindings`);
    /// the solver's explanation trace.
    pub provenance: Vec<BindRule>,
    /// Search statistics.
    pub stats: SolveStats,
    /// True when the search budget ran out and the bindings are the
    /// guaranteed trivial solution rather than a searched one. The solution
    /// is still executable (iteration spaces get equal partitions, access
    /// symbols the union of their substituted lower bounds), but it ignores
    /// preferences the search would have optimized.
    pub degraded: bool,
}

/// Resource limits on the backtracking search (Algorithm 2). The paper
/// guarantees a trivial solution always exists for Algorithm-1 constraints,
/// so exhausting a budget degrades to that solution instead of erroring:
/// under any budget — including zero — `solve_with` terminates with a
/// usable [`Solution`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct SolveBudget {
    /// Maximum search nodes to explore (`Some(0)` forbids searching at all).
    pub max_nodes: Option<u64>,
    /// Maximum backtracks before giving up (`Some(0)` means the first
    /// failed candidate ends the search).
    pub max_backtracks: Option<u64>,
    /// Wall-clock limit on the whole solve.
    pub deadline: Option<Duration>,
}

impl SolveBudget {
    /// No limits (the default).
    pub fn unlimited() -> Self {
        SolveBudget::default()
    }

    fn exceeded(&self, stats: &SolveStats, start: Instant) -> Option<BudgetExhausted> {
        if let Some(max) = self.max_nodes {
            if stats.nodes_explored >= max {
                return Some(BudgetExhausted::Nodes);
            }
        }
        if let Some(max) = self.max_backtracks {
            if stats.backtracks > max {
                return Some(BudgetExhausted::Backtracks);
            }
        }
        if let Some(limit) = self.deadline {
            if start.elapsed() >= limit {
                return Some(BudgetExhausted::Deadline);
            }
        }
        None
    }
}

/// Which budget dimension ran out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetExhausted {
    Nodes,
    Backtracks,
    Deadline,
}

impl BudgetExhausted {
    pub fn as_str(self) -> &'static str {
        match self {
            BudgetExhausted::Nodes => "nodes",
            BudgetExhausted::Backtracks => "backtracks",
            BudgetExhausted::Deadline => "deadline",
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct SolveStats {
    pub nodes_explored: u64,
    /// Candidate equalities proposed (bind attempts, successful or not).
    pub candidates_tried: u64,
    pub backtracks: u64,
    /// Lemma-engine rule firings (L1–L14 prover steps) across all base-case
    /// entailment checks.
    pub lemma_applications: u64,
    /// Lemma judgments answered from the per-solve memo table.
    pub lemma_memo_hits: u64,
    /// Substitutions answered from the id-keyed cache (`subst.cache_hit`).
    pub subst_cache_hits: u64,
    /// Set when a [`SolveBudget`] dimension ran out and the search was
    /// abandoned for the trivial solution.
    pub exhausted: Option<BudgetExhausted>,
}

impl SolveStats {
    /// Adds another run's counters into this one (used by unification to
    /// accumulate the work its consistency checks spend).
    pub fn absorb(&mut self, other: &SolveStats) {
        self.nodes_explored += other.nodes_explored;
        self.candidates_tried += other.candidates_tried;
        self.backtracks += other.backtracks;
        self.lemma_applications += other.lemma_applications;
        self.lemma_memo_hits += other.lemma_memo_hits;
        self.subst_cache_hits += other.subst_cache_hits;
        self.exhausted = self.exhausted.or(other.exhausted);
    }
}

/// The insight that justified binding a symbol — each variant cites the
/// lemmas it rests on, so the trace doubles as a proof sketch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BindRule {
    /// Pre-bound by the caller (external hint or unification representative).
    Forced,
    /// Rule 1: `image(P, f, R) ⊆ E` with closed `E` → `P = preimage(R', f, E)`.
    Preimage,
    /// Rule 2: all lower bounds closed → union of the bounds.
    UnionOfBounds,
    /// Rule 3: symbol carries `DISJ` → `equal(R)`.
    EqualDisj,
    /// Rule 4: symbol carries `COMP` → `equal(R)`.
    EqualComp,
    /// Fallback: unconstrained symbol completed with `equal(R)`.
    EqualTrivial,
    /// Budget exhausted: symbol assigned by the degraded trivial fallback
    /// (union of closed lower bounds where available, else `equal(R)`).
    DegradedTrivial,
}

impl BindRule {
    /// Stable human/machine-readable tag (used in explanation traces and
    /// JSON reports).
    pub fn as_str(self) -> &'static str {
        match self {
            BindRule::Forced => "forced(external/unification)",
            BindRule::Preimage => "preimage(L14)",
            BindRule::UnionOfBounds => "union-of-lower-bounds(L13)",
            BindRule::EqualDisj => "equal-for-DISJ(L1,L9,L10,L12)",
            BindRule::EqualComp => "equal-for-COMP(L1,L6,L7)",
            BindRule::EqualTrivial => "equal-trivial(unconstrained)",
            BindRule::DegradedTrivial => "degraded-trivial(budget-exhausted)",
        }
    }
}

impl Solution {
    pub fn expr_for(&self, s: PSym) -> &PExpr {
        &self.bindings[s.0 as usize]
    }

    /// Interned binding id for a symbol.
    pub fn id_for(&self, s: PSym) -> ExprId {
        self.binding_ids[s.0 as usize]
    }

    /// Number of *distinct* partitions the solution constructs: bindings
    /// with equal ids (canonically equal expressions, not just identical
    /// trees) evaluate to the same partition.
    pub fn num_distinct_partitions(&self) -> usize {
        self.binding_ids.iter().collect::<BTreeSet<_>>().len()
    }

    /// Renders the solution as a DPL program, one statement per distinct
    /// expression (`P3 = P1` style aliases for duplicates).
    pub fn render(&self, system: &System, fns: &FnTable) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut first_with: HashMap<ExprId, PSym> = HashMap::new();
        for (i, &id) in self.binding_ids.iter().enumerate() {
            let sym = PSym(i as u32);
            match first_with.get(&id) {
                Some(prev) => {
                    let _ = writeln!(out, "{sym:?} = {prev:?}");
                }
                None => {
                    let _ = writeln!(out, "{sym:?} = {}", system.display_expr(id, fns));
                    first_with.insert(id, sym);
                }
            }
        }
        out
    }

    /// Renders the explanation trace: one line per symbol stating the
    /// binding, the candidate rule that produced it (with the lemmas it
    /// rests on), and the symbol's diagnostic name. Pairs with [`Self::render`]
    /// the way a proof sketch pairs with a program listing.
    pub fn render_explanation(&self, system: &System, fns: &FnTable) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, &id) in self.binding_ids.iter().enumerate() {
            let sym = PSym(i as u32);
            let rule = self.provenance.get(i).copied().unwrap_or(BindRule::EqualTrivial);
            let name = system.sym_names.get(i).map(String::as_str).unwrap_or("");
            let _ = writeln!(
                out,
                "{sym:?} = {}  via {}  // {}",
                system.display_expr(id, fns),
                rule.as_str(),
                name
            );
        }
        let _ = writeln!(
            out,
            "-- search: {} nodes, {} candidates, {} backtracks, {} lemma applications ({} memoized), {} subst cache hits",
            self.stats.nodes_explored,
            self.stats.candidates_tried,
            self.stats.backtracks,
            self.stats.lemma_applications,
            self.stats.lemma_memo_hits,
            self.stats.subst_cache_hits
        );
        if let Some(reason) = self.stats.exhausted {
            let _ = writeln!(
                out,
                "-- degraded: {} budget exhausted, trivial fallback solution",
                reason.as_str()
            );
        }
        out
    }
}

/// Why solving failed.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// Exhausted all candidates without finding a consistent strengthening.
    Unsatisfiable,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Unsatisfiable => write!(f, "constraint system unsatisfiable"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Solves a system with no pre-made bindings and no budget.
pub fn solve(system: &System, fns: &FnTable) -> Result<Solution, SolveError> {
    solve_with(system, fns, &HashMap::new(), &SolveBudget::unlimited())
}

/// Mutable search state threaded through the recursion: the partial
/// binding per symbol plus the id-keyed substitution cache that survives
/// backtracking (results are keyed by the binding signature they were
/// computed under, so stale entries can never be observed).
struct SearchState {
    bindings: Vec<Option<ExprId>>,
    prov: Vec<Option<BindRule>>,
    subst_cache: HashMap<(ExprId, u64), ExprId>,
}

impl SearchState {
    fn new(n: usize) -> Self {
        SearchState { bindings: vec![None; n], prov: vec![None; n], subst_cache: HashMap::new() }
    }

    /// Applies current bindings to an expression (full inlining), reusing
    /// cached rewrites from earlier nodes of the search — including
    /// siblings explored before a backtrack.
    fn apply(&mut self, system: &System, e: ExprId, stats: &mut SolveStats) -> ExprId {
        let arena = &system.arena;
        // Signature of the bindings visible to this expression: the bound
        // subset of its free symbols. No bound symbol → identity.
        let syms = arena.syms(e);
        let mut hasher = DefaultHasher::new();
        let mut any_bound = false;
        for s in syms.iter() {
            if let Some(b) = self.bindings[s.0 as usize] {
                any_bound = true;
                s.0.hash(&mut hasher);
                b.0.hash(&mut hasher);
            }
        }
        if !any_bound {
            return e;
        }
        let sig = hasher.finish();
        if let Some(&cached) = self.subst_cache.get(&(e, sig)) {
            stats.subst_cache_hits += 1;
            return cached;
        }
        let result = match arena.node(e) {
            Expr::Sym(s) => self.bindings[s.0 as usize].unwrap_or(e),
            Expr::Ext(_) | Expr::Equal(_) | Expr::Empty(_) => e,
            Expr::Image { src, f, target } => {
                let s = self.apply(system, src, stats);
                arena.image(s, f, target)
            }
            Expr::Preimage { domain, f, src } => {
                let s = self.apply(system, src, stats);
                arena.preimage(domain, f, s)
            }
            Expr::Union(cs) => {
                let cs: Vec<ExprId> =
                    cs.into_iter().map(|c| self.apply(system, c, stats)).collect();
                arena.union(cs)
            }
            Expr::Intersect(cs) => {
                let cs: Vec<ExprId> =
                    cs.into_iter().map(|c| self.apply(system, c, stats)).collect();
                arena.intersect(cs)
            }
            Expr::Difference(a, b) => {
                let (a, b) = (self.apply(system, a, stats), self.apply(system, b, stats));
                arena.difference(a, b)
            }
        };
        self.subst_cache.insert((e, sig), result);
        result
    }
}

/// Like [`solve`] but with some symbols pre-bound (`forced`, values must be
/// closed — from unification: merged symbols bound to their representative,
/// hints bound to externals) and a search budget.
///
/// Under any budget — including zero — this terminates. Exhausting the
/// budget falls back to the trivial solution (degraded, never an error);
/// a genuine `Unsatisfiable` found *within* budget is still an error.
pub fn solve_with(
    system: &System,
    fns: &FnTable,
    forced: &HashMap<PSym, PExpr>,
    budget: &SolveBudget,
) -> Result<Solution, SolveError> {
    let start = Instant::now();
    let n = system.num_syms();
    let mut state = SearchState::new(n);
    for (s, e) in forced {
        debug_assert!(e.is_closed(), "forced binding for {s:?} must be closed");
        state.bindings[s.0 as usize] = Some(system.arena.intern(e));
        state.prov[s.0 as usize] = Some(BindRule::Forced);
    }
    let mut stats = SolveStats::default();
    let ctx = FactCtx::new(system, fns);
    let solved = solve_rec(system, fns, &mut state, &ctx, &mut stats, budget, start);
    stats.lemma_applications += ctx.lemma_applications();
    stats.lemma_memo_hits += ctx.memo_hits();
    if solved {
        let binding_ids: Vec<ExprId> = state.bindings.into_iter().map(Option::unwrap).collect();
        let bindings: Vec<PExpr> =
            binding_ids.iter().map(|&id| system.arena.to_pexpr(id)).collect();
        let provenance =
            state.prov.into_iter().map(|r| r.unwrap_or(BindRule::EqualTrivial)).collect();
        if partir_obs::trace_enabled() {
            partir_obs::instant(
                "solve.done",
                vec![
                    ("nodes", stats.nodes_explored.into()),
                    ("candidates", stats.candidates_tried.into()),
                    ("backtracks", stats.backtracks.into()),
                    ("lemma_applications", stats.lemma_applications.into()),
                    ("lemma_memo_hits", stats.lemma_memo_hits.into()),
                    ("subst_cache_hits", stats.subst_cache_hits.into()),
                ],
            );
        }
        Ok(Solution { bindings, binding_ids, provenance, stats, degraded: false })
    } else if let Some(reason) = stats.exhausted {
        if partir_obs::trace_enabled() {
            partir_obs::instant(
                "solve.budget_exhausted",
                vec![
                    ("reason", reason.as_str().into()),
                    ("nodes", stats.nodes_explored.into()),
                    ("backtracks", stats.backtracks.into()),
                ],
            );
        }
        Ok(trivial_solution(system, forced, stats))
    } else {
        Err(SolveError::Unsatisfiable)
    }
}

/// The guaranteed fallback when the budget runs out: assign every symbol in
/// topological order (shallowest dependency depth first). A symbol whose
/// lower bounds all become closed after substitution gets their union —
/// this preserves execution legality, since access-symbol bounds include
/// the images of the iteration partition — otherwise `equal(R)` of its
/// region, the paper's trivial solution. Forced bindings are preserved.
fn trivial_solution(
    system: &System,
    forced: &HashMap<PSym, PExpr>,
    mut stats: SolveStats,
) -> Solution {
    let arena = &system.arena;
    let n = system.num_syms();
    let mut state = SearchState::new(n);
    let mut prov: Vec<BindRule> = vec![BindRule::DegradedTrivial; n];
    for (s, e) in forced {
        state.bindings[s.0 as usize] = Some(arena.intern(e));
        prov[s.0 as usize] = BindRule::Forced;
    }
    let mut lower: Vec<Vec<ExprId>> = vec![Vec::new(); n];
    for sub in &system.subset_obligations {
        if let Expr::Sym(p) = arena.node(sub.rhs) {
            lower[p.0 as usize].push(sub.lhs);
        }
    }
    let depth = depths(system);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (depth[i], i));
    for i in order {
        if state.bindings[i].is_some() {
            continue;
        }
        let bounds: Vec<ExprId> = {
            let raw = lower[i].clone();
            raw.into_iter().map(|e| state.apply(system, e, &mut stats)).collect()
        };
        let cand = if !bounds.is_empty() && bounds.iter().all(|&b| arena.is_closed(b)) {
            // The n-ary union constructor sorts and dedups canonically.
            Some(arena.union(bounds))
        } else {
            None
        };
        state.bindings[i] = Some(cand.unwrap_or_else(|| arena.equal(system.sym_regions[i])));
    }
    let binding_ids: Vec<ExprId> = state.bindings.into_iter().map(Option::unwrap).collect();
    let bindings = binding_ids.iter().map(|&id| arena.to_pexpr(id)).collect();
    Solution { bindings, binding_ids, provenance: prov, stats, degraded: true }
}

/// Substituted view of the obligations under the current partial bindings,
/// with tautologies removed (an O(1) id comparison on canonical forms).
fn pending_subsets(
    system: &System,
    state: &mut SearchState,
    stats: &mut SolveStats,
) -> Vec<Subset> {
    system
        .subset_obligations
        .iter()
        .map(|s| Subset {
            lhs: state.apply(system, s.lhs, stats),
            rhs: state.apply(system, s.rhs, stats),
        })
        .filter(|s| s.lhs != s.rhs)
        .collect()
}

/// Depth of each symbol: `depth(P) = k` for the longest chain
/// `E1 ⊆ … ⊆ Ek ⊆ P` (cycles are cut; every symbol on a cycle gets the
/// depth reached when first revisited).
fn depths(system: &System) -> Vec<u32> {
    // Build edges sym -> sym from subset obligations.
    let arena = &system.arena;
    let n = system.num_syms();
    let mut preds_of: Vec<Vec<u32>> = vec![Vec::new(); n];
    for s in &system.subset_obligations {
        if let Expr::Sym(dst) = arena.node(s.rhs) {
            for &src in arena.syms(s.lhs).iter() {
                if src != dst {
                    preds_of[dst.0 as usize].push(src.0);
                }
            }
        }
    }
    let mut depth = vec![0u32; n];
    let mut state = vec![0u8; n]; // 0 unvisited, 1 in-progress, 2 done
    fn visit(i: usize, preds_of: &[Vec<u32>], depth: &mut [u32], state: &mut [u8]) -> u32 {
        match state[i] {
            2 => return depth[i],
            1 => return depth[i].max(1), // cycle: cut here
            _ => {}
        }
        state[i] = 1;
        let mut d = 1;
        for &p in &preds_of[i] {
            d = d.max(1 + visit(p as usize, preds_of, depth, state));
        }
        depth[i] = d;
        state[i] = 2;
        d
    }
    for i in 0..n {
        visit(i, &preds_of, &mut depth, &mut state);
    }
    depth
}

fn solve_rec(
    system: &System,
    fns: &FnTable,
    state: &mut SearchState,
    ctx: &FactCtx,
    stats: &mut SolveStats,
    budget: &SolveBudget,
    start: Instant,
) -> bool {
    if stats.exhausted.is_some() {
        return false;
    }
    if let Some(reason) = budget.exceeded(stats, start) {
        stats.exhausted = Some(reason);
        return false;
    }
    stats.nodes_explored += 1;
    let arena = &system.arena;
    let subs = pending_subsets(system, state, stats);

    let is_single = |f: crate::lang::FnRef| match f {
        crate::lang::FnRef::Identity => true,
        crate::lang::FnRef::Fn(id) => fns.is_single_valued(id),
    };

    // Rule 1: image(P, f, R) ⊆ E with closed E → P = preimage(R', f, E).
    let mut tried_any = false;
    for sub in &subs {
        if !arena.is_closed(sub.rhs) {
            continue;
        }
        if let Expr::Image { src, f, .. } = arena.node(sub.lhs) {
            if let Expr::Sym(p) = arena.node(src) {
                if state.bindings[p.0 as usize].is_none() && is_single(f) {
                    tried_any = true;
                    stats.candidates_tried += 1;
                    let domain = system.sym_region(p);
                    let cand = arena.preimage(domain, f, sub.rhs);
                    state.bindings[p.0 as usize] = Some(cand);
                    state.prov[p.0 as usize] = Some(BindRule::Preimage);
                    if solve_rec(system, fns, state, ctx, stats, budget, start) {
                        return true;
                    }
                    state.bindings[p.0 as usize] = None;
                    if stats.exhausted.is_some() {
                        return false;
                    }
                    stats.backtracks += 1;
                }
            }
        }
    }

    // Rule 2: P whose lower bounds are all closed → union of the bounds.
    let mut lower: HashMap<PSym, (Vec<ExprId>, bool)> = HashMap::new();
    for sub in &subs {
        if let Expr::Sym(p) = arena.node(sub.rhs) {
            if state.bindings[p.0 as usize].is_none() {
                let entry = lower.entry(p).or_insert_with(|| (Vec::new(), true));
                entry.1 &= arena.is_closed(sub.lhs);
                entry.0.push(sub.lhs);
            }
        }
    }
    let mut ready: Vec<(PSym, Vec<ExprId>)> = lower
        .into_iter()
        .filter(|(_, (_, all_closed))| *all_closed)
        .map(|(p, (bounds, _))| (p, bounds))
        .collect();
    ready.sort_by_key(|(p, _)| *p);
    for (p, bounds) in ready {
        tried_any = true;
        stats.candidates_tried += 1;
        // n-ary union canonicalizes (sorts, dedups) the bounds.
        let cand = arena.union(bounds);
        state.bindings[p.0 as usize] = Some(cand);
        state.prov[p.0 as usize] = Some(BindRule::UnionOfBounds);
        if solve_rec(system, fns, state, ctx, stats, budget, start) {
            return true;
        }
        state.bindings[p.0 as usize] = None;
        if stats.exhausted.is_some() {
            return false;
        }
        stats.backtracks += 1;
    }

    // Rules 3 & 4: equal(R) for DISJ syms, then COMP syms, deepest first.
    let depth = depths(system);
    let mut disj_syms: Vec<PSym> = Vec::new();
    let mut comp_syms: Vec<PSym> = Vec::new();
    for pred in &system.pred_obligations {
        match pred {
            Pred::Disj(e) => {
                if let Expr::Sym(p) = arena.node(*e) {
                    if state.bindings[p.0 as usize].is_none() {
                        disj_syms.push(p);
                    }
                }
            }
            Pred::Comp(e, _) => {
                if let Expr::Sym(p) = arena.node(*e) {
                    if state.bindings[p.0 as usize].is_none() {
                        comp_syms.push(p);
                    }
                }
            }
            _ => {}
        }
    }
    disj_syms.sort_by_key(|p| std::cmp::Reverse(depth[p.0 as usize]));
    disj_syms.dedup();
    comp_syms.sort_by_key(|p| std::cmp::Reverse(depth[p.0 as usize]));
    comp_syms.dedup();
    let tagged = disj_syms
        .into_iter()
        .map(|p| (p, BindRule::EqualDisj))
        .chain(comp_syms.into_iter().map(|p| (p, BindRule::EqualComp)));
    for (p, rule) in tagged {
        if state.bindings[p.0 as usize].is_some() {
            continue;
        }
        tried_any = true;
        stats.candidates_tried += 1;
        state.bindings[p.0 as usize] = Some(arena.equal(system.sym_region(p)));
        state.prov[p.0 as usize] = Some(rule);
        if solve_rec(system, fns, state, ctx, stats, budget, start) {
            return true;
        }
        state.bindings[p.0 as usize] = None;
        if stats.exhausted.is_some() {
            return false;
        }
        stats.backtracks += 1;
    }

    // Base case: nothing to strengthen — verify entailment of the whole
    // system. Any unbound symbol left means some constraint is unsupported.
    if tried_any {
        return false;
    }
    if state.bindings.iter().any(Option::is_none) {
        // Unconstrained symbols (no bounds, no predicates) — complete them
        // with the trivial equal partition of their region and re-check.
        let mut set_here: Vec<usize> = Vec::new();
        for i in 0..state.bindings.len() {
            if state.bindings[i].is_none() {
                state.bindings[i] = Some(arena.equal(system.sym_regions[i]));
                state.prov[i] = Some(BindRule::EqualTrivial);
                set_here.push(i);
            }
        }
        if !set_here.is_empty() {
            stats.candidates_tried += 1;
            if solve_rec(system, fns, state, ctx, stats, budget, start) {
                return true;
            }
            // Roll back (only the ones we set — all previously-None).
            for i in set_here {
                state.bindings[i] = None;
            }
            if stats.exhausted.is_none() {
                stats.backtracks += 1;
            }
            return false;
        }
    }
    for sub in &subs {
        if !entails_subset(sub.lhs, sub.rhs, ctx) {
            return false;
        }
    }
    for pred in &system.pred_obligations {
        let holds = match pred {
            Pred::Part(e, r) => {
                let e = state.apply(system, *e, stats);
                prove_pred(&Pred::Part(e, *r), ctx)
            }
            Pred::Disj(e) => {
                let e = state.apply(system, *e, stats);
                prove_pred(&Pred::Disj(e), ctx)
            }
            Pred::Comp(e, r) => {
                let e = state.apply(system, *e, stats);
                prove_pred(&Pred::Comp(e, *r), ctx)
            }
        };
        if !holds {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::FnRef;
    use partir_dpl::func::FnId;
    use partir_dpl::region::{RegionId, Schema};

    fn setup() -> (System, FnTable, RegionId, RegionId) {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 10);
        let s = schema.add_region("S", 10);
        let mut fns = FnTable::new();
        fns.add_affine("g", r, s, 1, 0);
        (System::new(), fns, r, s)
    }

    fn g() -> FnRef {
        FnRef::Fn(FnId(0))
    }

    /// Example 2: PART(P1,R) ∧ COMP(P1,R) ∧ DISJ(P1) ∧ PART(P2,S)
    /// ∧ image(P1,g,S) ⊆ P2 ∧ PART(P3,R) ∧ P1 ⊆ P3.
    #[test]
    fn example_2() {
        let (mut sys, fns, r, s) = setup();
        let p1 = sys.fresh_sym(r, "p1");
        let p2 = sys.fresh_sym(s, "p2");
        let p3 = sys.fresh_sym(r, "p3");
        sys.require_comp(PExpr::sym(p1), r);
        sys.require_disj(PExpr::sym(p1));
        sys.require_subset(PExpr::image(PExpr::sym(p1), g(), s), PExpr::sym(p2));
        sys.require_subset(PExpr::sym(p1), PExpr::sym(p3));
        let sol = solve(&sys, &fns).expect("solvable");
        assert_eq!(sol.expr_for(p1), &PExpr::Equal(r));
        assert_eq!(sol.expr_for(p2), &PExpr::image(PExpr::Equal(r), g(), s));
        assert_eq!(sol.expr_for(p3), &PExpr::Equal(r));
        // After CSE, P3 = P1: 2 distinct partitions.
        assert_eq!(sol.num_distinct_partitions(), 2);
        assert_eq!(sol.id_for(p1), sol.id_for(p3));
    }

    /// Example 3: adding DISJ(P2) flips the solution to
    /// P2 = equal(S), P1 = preimage(R, g, P2).
    #[test]
    fn example_3() {
        let (mut sys, fns, r, s) = setup();
        let p1 = sys.fresh_sym(r, "p1");
        let p2 = sys.fresh_sym(s, "p2");
        let p3 = sys.fresh_sym(r, "p3");
        sys.require_comp(PExpr::sym(p1), r);
        sys.require_disj(PExpr::sym(p1));
        sys.require_subset(PExpr::image(PExpr::sym(p1), g(), s), PExpr::sym(p2));
        sys.require_disj(PExpr::sym(p2));
        sys.require_subset(PExpr::sym(p1), PExpr::sym(p3));
        let sol = solve(&sys, &fns).expect("solvable");
        assert_eq!(sol.expr_for(p2), &PExpr::Equal(s));
        assert_eq!(sol.expr_for(p1), &PExpr::preimage(r, g(), PExpr::Equal(s)));
        assert_eq!(sol.expr_for(p3), sol.expr_for(p1));
    }

    /// Program-B preference: with COMP on the deeper Cells symbol the solver
    /// derives the iteration partition by preimage (Figure 2b) rather than
    /// materializing an extra pair of partitions (Figure 2a).
    #[test]
    fn figure2_program_b_fewest_partitions() {
        // P1: Particles iter (COMP); P2: Cells access; P3: Cells (h) access;
        // P4: Cells iter (COMP) unified into P2 (simulated by putting COMP
        // on P2 directly); P5 unified into P3.
        let mut schema = Schema::new();
        let particles = schema.add_region("Particles", 10);
        let cells = schema.add_region("Cells", 10);
        let mut fns = FnTable::new();
        let f1 =
            FnRef::Fn(fns.add_ptr_field("cell", particles, cells, partir_dpl::region::FieldId(0)));
        let h = FnRef::Fn(fns.add_affine("h", cells, cells, 1, 1));
        let mut sys = System::new();
        let p1 = sys.fresh_sym(particles, "p1");
        let p2 = sys.fresh_sym(cells, "p2");
        let p3 = sys.fresh_sym(cells, "p3");
        sys.require_comp(PExpr::sym(p1), particles);
        sys.require_comp(PExpr::sym(p2), cells);
        sys.require_subset(PExpr::image(PExpr::sym(p1), f1, cells), PExpr::sym(p2));
        sys.require_subset(PExpr::image(PExpr::sym(p2), h, cells), PExpr::sym(p3));
        let sol = solve(&sys, &fns).expect("solvable");
        assert_eq!(sol.expr_for(p2), &PExpr::Equal(cells));
        assert_eq!(sol.expr_for(p1), &PExpr::preimage(particles, f1, PExpr::Equal(cells)));
        assert_eq!(sol.expr_for(p3), &PExpr::image(PExpr::Equal(cells), h, cells));
        assert_eq!(sol.num_distinct_partitions(), 3);
    }

    /// Figure 11 after relaxation: iteration partition is the union of
    /// preimages; DISJ dropped from the iteration space, added to targets.
    #[test]
    fn relaxed_multi_reduce_union_of_preimages() {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 10);
        let s = schema.add_region("S", 10);
        let mut fns = FnTable::new();
        let f = FnRef::Fn(fns.add_affine("f", r, s, 1, 0));
        let gq = FnRef::Fn(fns.add_affine("g", r, s, 1, 1));
        let mut sys = System::new();
        let p1 = sys.fresh_sym(r, "iter");
        let p2 = sys.fresh_sym(s, "f-target");
        let p3 = sys.fresh_sym(s, "g-target");
        sys.require_comp(PExpr::sym(p1), r);
        // Relaxed obligations (Section 5.1).
        sys.require_disj(PExpr::sym(p2));
        sys.require_comp(PExpr::sym(p2), s);
        sys.require_subset(PExpr::preimage(r, f, PExpr::sym(p2)), PExpr::sym(p1));
        sys.require_disj(PExpr::sym(p3));
        sys.require_comp(PExpr::sym(p3), s);
        sys.require_subset(PExpr::preimage(r, gq, PExpr::sym(p3)), PExpr::sym(p1));
        let sol = solve(&sys, &fns).expect("solvable");
        assert_eq!(sol.expr_for(p2), &PExpr::Equal(s));
        assert_eq!(sol.expr_for(p3), &PExpr::Equal(s));
        match sol.expr_for(p1) {
            PExpr::Union(a, b) => {
                let both = [format!("{a:?}"), format!("{b:?}")];
                assert!(both.iter().any(|x| x.contains("fn0")));
                assert!(both.iter().any(|x| x.contains("fn1")));
            }
            other => panic!("expected union of preimages, got {other:?}"),
        }
    }

    /// Unification-induced recursion without a fixed external partition is
    /// unsatisfiable (the paper's fixpoint example).
    #[test]
    fn recursive_constraint_unsatisfiable() {
        let (mut sys, fns, r, _) = setup();
        let p1 = sys.fresh_sym(r, "p1");
        // image(P1, g', R) ⊆ P1 with g': R -> R.
        let mut fns2 = fns.clone();
        let g2 = FnRef::Fn(fns2.add_affine("g2", r, r, 1, 1));
        sys.require_comp(PExpr::sym(p1), r);
        sys.require_subset(PExpr::image(PExpr::sym(p1), g2, r), PExpr::sym(p1));
        assert!(matches!(solve(&sys, &fns2), Err(SolveError::Unsatisfiable)));
    }

    /// Recursive constraints *are* consistent when the symbol is held fixed
    /// at an external partition whose facts satisfy them (PENNANT Hint 2).
    #[test]
    fn recursive_constraint_with_external_fact() {
        let (mut sys, fns, r, _) = setup();
        let mut fns2 = fns.clone();
        let g2 = FnRef::Fn(fns2.add_affine("g2", r, r, 1, 1));
        let rs_p = sys.add_external("rs_p", r);
        let p1 = sys.fresh_sym(r, "p1");
        sys.assume_fact_subset(PExpr::image(PExpr::ext(rs_p), g2, r), PExpr::ext(rs_p));
        let ext_id = sys.intern(PExpr::ext(rs_p));
        sys.assume_fact_pred(Pred::Comp(ext_id, r));
        sys.require_comp(PExpr::sym(p1), r);
        sys.require_subset(PExpr::image(PExpr::sym(p1), g2, r), PExpr::sym(p1));
        let mut forced = HashMap::new();
        forced.insert(p1, PExpr::ext(rs_p));
        let sol = solve_with(&sys, &fns2, &forced, &SolveBudget::unlimited())
            .expect("consistent with external");
        assert_eq!(sol.expr_for(p1), &PExpr::ext(rs_p));
    }

    /// A system whose first candidate (Preimage) fails verification and
    /// must backtrack to `equal(R)`: with `max_backtracks = 0` the solve
    /// still terminates, returning the degraded trivial solution instead
    /// of erroring or hanging; with room to backtrack it solves normally.
    #[test]
    fn zero_backtrack_budget_degrades_to_trivial() {
        let (mut sys, fns, r, s) = setup();
        let e = sys.add_external("e", s);
        let p1 = sys.fresh_sym(r, "p1");
        // Rule 1 proposes P1 = preimage(R, g, e), which fails COMP(P1, R)
        // (nothing is known about e's coverage); the fact below then lets
        // the backtracked candidate P1 = equal(R) verify.
        sys.require_comp(PExpr::sym(p1), r);
        sys.require_subset(PExpr::image(PExpr::sym(p1), g(), s), PExpr::ext(e));
        sys.assume_fact_subset(PExpr::image(PExpr::Equal(r), g(), s), PExpr::ext(e));
        let budget = SolveBudget { max_backtracks: Some(0), ..SolveBudget::default() };
        let sol = solve_with(&sys, &fns, &HashMap::new(), &budget)
            .expect("budget exhaustion must not error");
        assert!(sol.degraded);
        assert_eq!(sol.stats.exhausted, Some(BudgetExhausted::Backtracks));
        assert_eq!(sol.expr_for(p1), &PExpr::Equal(r));
        assert!(sol.bindings.iter().all(PExpr::is_closed));
        assert!(sol.provenance.iter().all(|b| matches!(b, BindRule::DegradedTrivial)));
        // The same system under a budget it fits in solves non-degraded.
        let roomy = SolveBudget { max_backtracks: Some(64), ..SolveBudget::default() };
        let sol = solve_with(&sys, &fns, &HashMap::new(), &roomy).unwrap();
        assert!(!sol.degraded);
        assert_eq!(sol.stats.exhausted, None);
        assert!(sol.stats.backtracks >= 1, "first candidate must have failed");
        assert_eq!(sol.expr_for(p1), &PExpr::Equal(r));
    }

    /// `max_nodes = 0` forbids any search at all: every system yields the
    /// trivial solution immediately, so `solve_with` is total.
    #[test]
    fn zero_node_budget_is_total() {
        let (mut sys, fns, r, s) = setup();
        let p1 = sys.fresh_sym(r, "p1");
        let p2 = sys.fresh_sym(s, "p2");
        sys.require_comp(PExpr::sym(p1), r);
        sys.require_disj(PExpr::sym(p1));
        sys.require_subset(PExpr::image(PExpr::sym(p1), g(), s), PExpr::sym(p2));
        let budget = SolveBudget { max_nodes: Some(0), ..SolveBudget::default() };
        let sol = solve_with(&sys, &fns, &HashMap::new(), &budget).expect("total");
        assert!(sol.degraded);
        assert_eq!(sol.stats.exhausted, Some(BudgetExhausted::Nodes));
        assert_eq!(sol.stats.nodes_explored, 0);
        assert!(sol.bindings.iter().all(PExpr::is_closed));
    }

    /// A zero wall-clock deadline exhausts immediately but still returns a
    /// usable solution.
    #[test]
    fn zero_deadline_degrades_immediately() {
        let (mut sys, fns, r, _) = setup();
        let p = sys.fresh_sym(r, "p");
        sys.require_comp(PExpr::sym(p), r);
        let budget = SolveBudget { deadline: Some(Duration::ZERO), ..SolveBudget::default() };
        let sol = solve_with(&sys, &fns, &HashMap::new(), &budget).expect("total");
        assert!(sol.degraded);
        assert_eq!(sol.stats.exhausted, Some(BudgetExhausted::Deadline));
        assert_eq!(sol.expr_for(p), &PExpr::Equal(r));
    }

    /// Forced bindings (unification/externals) survive into the degraded
    /// trivial solution, and its lower-bound unions substitute them.
    #[test]
    fn degraded_trivial_preserves_forced_bindings() {
        let (mut sys, fns, r, s) = setup();
        let rs_p = sys.add_external("rs_p", r);
        let p1 = sys.fresh_sym(r, "p1");
        let p2 = sys.fresh_sym(s, "p2");
        sys.require_subset(PExpr::image(PExpr::sym(p1), g(), s), PExpr::sym(p2));
        let mut forced = HashMap::new();
        forced.insert(p1, PExpr::ext(rs_p));
        let budget = SolveBudget { max_nodes: Some(0), ..SolveBudget::default() };
        let sol = solve_with(&sys, &fns, &forced, &budget).expect("total");
        assert!(sol.degraded);
        assert_eq!(sol.expr_for(p1), &PExpr::ext(rs_p));
        assert_eq!(sol.provenance[p1.0 as usize], BindRule::Forced);
        assert_eq!(sol.expr_for(p2), &PExpr::image(PExpr::ext(rs_p), g(), s));
    }

    /// A genuinely unsatisfiable system stays an error under an *unlimited*
    /// budget: degradation is strictly a budget-exhaustion behavior.
    #[test]
    fn unsatisfiable_still_errors_under_unlimited_budget() {
        let (mut sys, fns, r, _) = setup();
        let p1 = sys.fresh_sym(r, "p1");
        let mut fns2 = fns.clone();
        let g2 = FnRef::Fn(fns2.add_affine("g2", r, r, 1, 1));
        sys.require_comp(PExpr::sym(p1), r);
        sys.require_subset(PExpr::image(PExpr::sym(p1), g2, r), PExpr::sym(p1));
        let res = solve_with(&sys, &fns2, &HashMap::new(), &SolveBudget::unlimited());
        assert!(matches!(res, Err(SolveError::Unsatisfiable)));
        // Under a zero budget even this system gets a (degraded) solution:
        // the recursive bound is not closed after substitution, so the
        // symbol falls back to equal(R).
        let budget = SolveBudget { max_nodes: Some(0), ..SolveBudget::default() };
        let sol = solve_with(&sys, &fns2, &HashMap::new(), &budget).expect("total");
        assert!(sol.degraded);
        assert_eq!(sol.expr_for(p1), &PExpr::Equal(r));
    }

    /// A symbol with no constraints at all gets the trivial equal partition.
    #[test]
    fn unconstrained_symbol_falls_back_to_equal() {
        let (mut sys, fns, r, _) = setup();
        let p = sys.fresh_sym(r, "lonely");
        let sol = solve(&sys, &fns).expect("solvable");
        assert_eq!(sol.expr_for(p), &PExpr::Equal(r));
    }

    /// Render produces readable DPL with aliases for duplicates.
    #[test]
    fn render_dpl_program() {
        let (mut sys, fns, r, s) = setup();
        let p1 = sys.fresh_sym(r, "p1");
        let p2 = sys.fresh_sym(s, "p2");
        let p3 = sys.fresh_sym(r, "p3");
        sys.require_comp(PExpr::sym(p1), r);
        sys.require_disj(PExpr::sym(p1));
        sys.require_subset(PExpr::image(PExpr::sym(p1), g(), s), PExpr::sym(p2));
        sys.require_subset(PExpr::sym(p1), PExpr::sym(p3));
        let sol = solve(&sys, &fns).unwrap();
        let text = sol.render(&sys, &fns);
        assert!(text.contains("P0 = equal(r0)"), "{text}");
        assert!(text.contains("P1 = image(equal(r0), g, r1)"), "{text}");
        assert!(text.contains("P2 = P0"), "{text}");
    }

    /// Backtracking revisits identical (expression, binding) pairs; the
    /// substitution cache must serve them without re-deriving.
    #[test]
    fn subst_cache_hits_during_search() {
        let (mut sys, fns, r, s) = setup();
        let p1 = sys.fresh_sym(r, "p1");
        let p2 = sys.fresh_sym(s, "p2");
        let p3 = sys.fresh_sym(r, "p3");
        sys.require_comp(PExpr::sym(p1), r);
        sys.require_disj(PExpr::sym(p1));
        sys.require_subset(PExpr::image(PExpr::sym(p1), g(), s), PExpr::sym(p2));
        sys.require_subset(PExpr::sym(p1), PExpr::sym(p3));
        let sol = solve(&sys, &fns).unwrap();
        assert!(
            sol.stats.subst_cache_hits > 0,
            "repeated pending-subset views must hit the cache: {:?}",
            sol.stats
        );
    }
}
