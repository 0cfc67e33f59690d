//! Hash-consed expression arena: every distinct partition expression is
//! interned exactly once and identified by a small [`ExprId`], so equality,
//! hashing, and memo-table keys are O(1) instead of O(tree size).
//!
//! Interning is *canonicalizing*: the AC operators `∪`/`∩` are flattened
//! into n-ary nodes with sorted, deduplicated children (so `a ∪ (b ∪ a)`
//! and `(b ∪ a) ∪ b` intern to the same id), and trivial identities are
//! folded away (`E − E → ∅`, `E ∪ E → E`, `∅ ∩ E → ∅`, `image(∅) → ∅`).
//! Canonical forms make the solver's and evaluator's memo tables hit on
//! semantic — not just syntactic — duplicates.
//!
//! The arena is shared (`Arc`): cloning a [`crate::lang::System`] clones a
//! handle to the *same* arena, so ids stay globally consistent across the
//! pipeline's trial solves and unification rewrites.

use crate::lang::{ExtId, ExternalDecl, FnRef, PExpr, PSym};
use partir_dpl::func::FnTable;
use partir_dpl::region::RegionId;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// Identity of an interned expression. Two ids from the same arena are
/// equal iff their canonicalized expression trees are equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

impl fmt::Debug for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Flat, id-referencing expression node. Unlike [`PExpr`], the AC
/// operators are n-ary (children sorted by id, deduplicated) and the empty
/// partition is a first-class leaf (the normal form of `E − E`).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    Sym(PSym),
    Ext(ExtId),
    Equal(RegionId),
    /// The everywhere-empty partition of a region (normal form of
    /// `E − E` and friends). Evaluates to `n_colors` empty subregions.
    Empty(RegionId),
    Image {
        src: ExprId,
        f: FnRef,
        target: RegionId,
    },
    Preimage {
        domain: RegionId,
        f: FnRef,
        src: ExprId,
    },
    /// n-ary, flattened; children sorted by id, deduplicated, `len ≥ 2`.
    Union(Vec<ExprId>),
    /// n-ary, flattened; children sorted by id, deduplicated, `len ≥ 2`.
    Intersect(Vec<ExprId>),
    Difference(ExprId, ExprId),
}

#[derive(Default)]
struct Inner {
    nodes: Vec<Expr>,
    dedup: HashMap<Expr, ExprId>,
    /// Cached per-node: contains no partition symbol.
    closed: Vec<bool>,
    /// Cached per-node: region the expression partitions, when derivable
    /// syntactically (compound nodes mixing regions have `None`).
    region: Vec<Option<RegionId>>,
    /// Cached per-node: free partition symbols (shared upward).
    syms: Vec<Arc<BTreeSet<PSym>>>,
    /// Regions of declared symbols/externals (registered by `System`),
    /// used for the `region` side table.
    sym_regions: Vec<RegionId>,
    ext_regions: Vec<RegionId>,
    empty_syms: Arc<BTreeSet<PSym>>,
    /// Counter: distinct nodes created.
    interned: u64,
    /// Counter: intern calls answered by an existing node.
    dedup_hits: u64,
}

/// Shared interning arena. `Clone` clones the handle, not the storage.
#[derive(Clone, Default)]
pub struct ExprArena {
    inner: Arc<Mutex<Inner>>,
}

impl fmt::Debug for ExprArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = self.lock();
        write!(f, "ExprArena({} nodes)", g.nodes.len())
    }
}

impl ExprArena {
    pub fn new() -> Self {
        ExprArena::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // The arena is append-only and never panics while holding the
        // lock, but recover from poisoning anyway rather than unwrapping.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers the region of the next partition symbol (called by
    /// `System::fresh_sym` in declaration order).
    pub fn register_sym(&self, region: RegionId) {
        self.lock().sym_regions.push(region);
    }

    /// Registers the region of the next external (declaration order).
    pub fn register_ext(&self, region: RegionId) {
        self.lock().ext_regions.push(region);
    }

    /// Number of distinct nodes interned.
    pub fn len(&self) -> usize {
        self.lock().nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lock().nodes.is_empty()
    }

    /// `(nodes created, intern calls answered by an existing node)`.
    pub fn counters(&self) -> (u64, u64) {
        let g = self.lock();
        (g.interned, g.dedup_hits)
    }

    /// The node behind an id (cheap clone; children are ids).
    pub fn node(&self, id: ExprId) -> Expr {
        self.lock().nodes[id.0 as usize].clone()
    }

    /// True when the expression contains no partition symbol.
    pub fn is_closed(&self, id: ExprId) -> bool {
        self.lock().closed[id.0 as usize]
    }

    /// Region the expression partitions, when derivable syntactically.
    pub fn region(&self, id: ExprId) -> Option<RegionId> {
        self.lock().region[id.0 as usize]
    }

    /// Free partition symbols of the expression (shared set).
    pub fn syms(&self, id: ExprId) -> Arc<BTreeSet<PSym>> {
        self.lock().syms[id.0 as usize].clone()
    }

    /// Interns a canonical node, deduplicating structurally equal terms
    /// and filling the side tables. All smart constructors funnel here.
    fn add(&self, node: Expr) -> ExprId {
        let mut g = self.lock();
        if let Some(&id) = g.dedup.get(&node) {
            g.dedup_hits += 1;
            return id;
        }
        let id = ExprId(g.nodes.len() as u32);
        let closed = match &node {
            Expr::Sym(_) => false,
            Expr::Ext(_) | Expr::Equal(_) | Expr::Empty(_) => true,
            Expr::Image { src, .. } | Expr::Preimage { src, .. } => g.closed[src.0 as usize],
            Expr::Union(cs) | Expr::Intersect(cs) => cs.iter().all(|c| g.closed[c.0 as usize]),
            Expr::Difference(a, b) => g.closed[a.0 as usize] && g.closed[b.0 as usize],
        };
        let region = match &node {
            Expr::Sym(s) => g.sym_regions.get(s.0 as usize).copied(),
            Expr::Ext(x) => g.ext_regions.get(x.0 as usize).copied(),
            Expr::Equal(r) | Expr::Empty(r) => Some(*r),
            Expr::Image { target, .. } => Some(*target),
            Expr::Preimage { domain, .. } => Some(*domain),
            Expr::Union(cs) | Expr::Intersect(cs) => {
                let mut it = cs.iter().map(|c| g.region[c.0 as usize]);
                let first = it.next().flatten();
                first.filter(|r| it.all(|x| x == Some(*r)))
            }
            Expr::Difference(a, b) => {
                let (ra, rb) = (g.region[a.0 as usize], g.region[b.0 as usize]);
                ra.filter(|r| rb == Some(*r))
            }
        };
        let syms = match &node {
            Expr::Sym(s) => Arc::new(BTreeSet::from([*s])),
            Expr::Ext(_) | Expr::Equal(_) | Expr::Empty(_) => g.empty_syms.clone(),
            Expr::Image { src, .. } | Expr::Preimage { src, .. } => g.syms[src.0 as usize].clone(),
            Expr::Union(cs) | Expr::Intersect(cs) => {
                merge_syms(cs.iter().map(|c| &g.syms[c.0 as usize]), &g.empty_syms)
            }
            Expr::Difference(a, b) => merge_syms(
                [&g.syms[a.0 as usize], &g.syms[b.0 as usize]].into_iter(),
                &g.empty_syms,
            ),
        };
        g.nodes.push(node.clone());
        g.closed.push(closed);
        g.region.push(region);
        g.syms.push(syms);
        g.dedup.insert(node, id);
        g.interned += 1;
        id
    }

    // ---- smart constructors (canonicalizing) -------------------------

    pub fn sym(&self, s: PSym) -> ExprId {
        self.add(Expr::Sym(s))
    }

    pub fn ext(&self, x: ExtId) -> ExprId {
        self.add(Expr::Ext(x))
    }

    pub fn equal(&self, r: RegionId) -> ExprId {
        self.add(Expr::Equal(r))
    }

    pub fn empty(&self, r: RegionId) -> ExprId {
        self.add(Expr::Empty(r))
    }

    pub fn image(&self, src: ExprId, f: FnRef, target: RegionId) -> ExprId {
        // image(∅, f, R) = ∅ at R.
        if let Expr::Empty(_) = self.node(src) {
            return self.empty(target);
        }
        self.add(Expr::Image { src, f, target })
    }

    pub fn preimage(&self, domain: RegionId, f: FnRef, src: ExprId) -> ExprId {
        // preimage(R, f, ∅) = ∅ at R.
        if let Expr::Empty(_) = self.node(src) {
            return self.empty(domain);
        }
        self.add(Expr::Preimage { domain, f, src })
    }

    /// n-ary union: flattens nested unions, sorts and dedups children
    /// (idempotence), drops `∅` operands. Panics on an empty operand list.
    pub fn union(&self, children: impl IntoIterator<Item = ExprId>) -> ExprId {
        let flat = self.flatten_ac(children, true);
        self.finish_union(flat)
    }

    /// Binary convenience over [`union`](Self::union).
    pub fn union2(&self, a: ExprId, b: ExprId) -> ExprId {
        self.union([a, b])
    }

    fn finish_union(&self, mut flat: Vec<ExprId>) -> ExprId {
        assert!(!flat.is_empty(), "union of zero expressions");
        // Drop ∅ operands unless the union is entirely empty.
        let non_empty: Vec<ExprId> =
            flat.iter().copied().filter(|c| !matches!(self.node(*c), Expr::Empty(_))).collect();
        if !non_empty.is_empty() {
            flat = non_empty;
        }
        flat.sort_unstable();
        flat.dedup();
        if flat.len() == 1 {
            return flat[0];
        }
        self.add(Expr::Union(flat))
    }

    /// n-ary intersection: flattens, sorts, dedups; `∅` annihilates.
    pub fn intersect(&self, children: impl IntoIterator<Item = ExprId>) -> ExprId {
        let mut flat = self.flatten_ac(children, false);
        assert!(!flat.is_empty(), "intersection of zero expressions");
        if let Some(&e) = flat.iter().find(|c| matches!(self.node(**c), Expr::Empty(_))) {
            return e;
        }
        flat.sort_unstable();
        flat.dedup();
        if flat.len() == 1 {
            return flat[0];
        }
        self.add(Expr::Intersect(flat))
    }

    /// Binary convenience over [`intersect`](Self::intersect).
    pub fn intersect2(&self, a: ExprId, b: ExprId) -> ExprId {
        self.intersect([a, b])
    }

    pub fn difference(&self, a: ExprId, b: ExprId) -> ExprId {
        // E − E = ∅ (when the region is derivable; keep the tree
        // otherwise so the normal form never loses region information).
        if a == b {
            if let Some(r) = self.region(a) {
                return self.empty(r);
            }
        }
        // ∅ − E = ∅;  E − ∅ = E.
        if matches!(self.node(a), Expr::Empty(_)) {
            return a;
        }
        if matches!(self.node(b), Expr::Empty(_)) {
            return a;
        }
        self.add(Expr::Difference(a, b))
    }

    fn flatten_ac(&self, children: impl IntoIterator<Item = ExprId>, union: bool) -> Vec<ExprId> {
        let mut out = Vec::new();
        for c in children {
            match (union, self.node(c)) {
                (true, Expr::Union(cs)) | (false, Expr::Intersect(cs)) => out.extend(cs),
                _ => out.push(c),
            }
        }
        out
    }

    // ---- PExpr bridge ------------------------------------------------

    /// Interns a tree-form expression, canonicalizing along the way.
    pub fn intern(&self, e: &PExpr) -> ExprId {
        match e {
            PExpr::Sym(s) => self.sym(*s),
            PExpr::Ext(x) => self.ext(*x),
            PExpr::Equal(r) => self.equal(*r),
            PExpr::Image { src, f, target } => {
                let s = self.intern(src);
                self.image(s, *f, *target)
            }
            PExpr::Preimage { domain, f, src } => {
                let s = self.intern(src);
                self.preimage(*domain, *f, s)
            }
            PExpr::Union(a, b) => {
                let (ia, ib) = (self.intern(a), self.intern(b));
                self.union([ia, ib])
            }
            PExpr::Intersect(a, b) => {
                let (ia, ib) = (self.intern(a), self.intern(b));
                self.intersect([ia, ib])
            }
            PExpr::Difference(a, b) => {
                let (ia, ib) = (self.intern(a), self.intern(b));
                self.difference(ia, ib)
            }
        }
    }

    /// Materializes an id back into tree form (n-ary nodes rebuild as
    /// left-associated binary operators; `∅` as `equal(R) − equal(R)`).
    pub fn to_pexpr(&self, id: ExprId) -> PExpr {
        match self.node(id) {
            Expr::Sym(s) => PExpr::Sym(s),
            Expr::Ext(x) => PExpr::Ext(x),
            Expr::Equal(r) => PExpr::Equal(r),
            Expr::Empty(r) => PExpr::difference(PExpr::Equal(r), PExpr::Equal(r)),
            Expr::Image { src, f, target } => PExpr::image(self.to_pexpr(src), f, target),
            Expr::Preimage { domain, f, src } => PExpr::preimage(domain, f, self.to_pexpr(src)),
            Expr::Union(cs) => self.fold_binary(&cs, PExpr::union),
            Expr::Intersect(cs) => self.fold_binary(&cs, PExpr::intersect),
            Expr::Difference(a, b) => PExpr::difference(self.to_pexpr(a), self.to_pexpr(b)),
        }
    }

    fn fold_binary(&self, cs: &[ExprId], op: fn(PExpr, PExpr) -> PExpr) -> PExpr {
        let mut it = cs.iter();
        let first = self.to_pexpr(*it.next().expect("n-ary node with no children"));
        it.fold(first, |acc, c| op(acc, self.to_pexpr(*c)))
    }

    /// Substitutes `sym ↦ repl` everywhere in `id`, re-canonicalizing.
    pub fn subst(&self, id: ExprId, sym: PSym, repl: ExprId) -> ExprId {
        if !self.syms(id).contains(&sym) {
            return id;
        }
        match self.node(id) {
            Expr::Sym(s) if s == sym => repl,
            Expr::Sym(_) | Expr::Ext(_) | Expr::Equal(_) | Expr::Empty(_) => id,
            Expr::Image { src, f, target } => {
                let s = self.subst(src, sym, repl);
                self.image(s, f, target)
            }
            Expr::Preimage { domain, f, src } => {
                let s = self.subst(src, sym, repl);
                self.preimage(domain, f, s)
            }
            Expr::Union(cs) => {
                let cs: Vec<ExprId> = cs.into_iter().map(|c| self.subst(c, sym, repl)).collect();
                self.union(cs)
            }
            Expr::Intersect(cs) => {
                let cs: Vec<ExprId> = cs.into_iter().map(|c| self.subst(c, sym, repl)).collect();
                self.intersect(cs)
            }
            Expr::Difference(a, b) => {
                let (a, b) = (self.subst(a, sym, repl), self.subst(b, sym, repl));
                self.difference(a, b)
            }
        }
    }

    /// Pretty-prints with function names resolved through `fns` and
    /// external names through `exts`.
    pub fn display(&self, id: ExprId, fns: &FnTable, exts: &[ExternalDecl]) -> String {
        match self.node(id) {
            Expr::Sym(s) => format!("{s:?}"),
            Expr::Ext(e) => {
                exts.get(e.0 as usize).map(|d| d.name.clone()).unwrap_or_else(|| format!("{e:?}"))
            }
            Expr::Equal(r) => format!("equal(r{})", r.0),
            Expr::Empty(r) => format!("∅(r{})", r.0),
            Expr::Image { src, f, target } => format!(
                "image({}, {}, r{})",
                self.display(src, fns, exts),
                f.display(fns),
                target.0
            ),
            Expr::Preimage { domain, f, src } => format!(
                "preimage(r{}, {}, {})",
                domain.0,
                f.display(fns),
                self.display(src, fns, exts)
            ),
            Expr::Union(cs) => self.display_nary(&cs, " ∪ ", fns, exts),
            Expr::Intersect(cs) => self.display_nary(&cs, " ∩ ", fns, exts),
            Expr::Difference(a, b) => {
                format!("({} − {})", self.display(a, fns, exts), self.display(b, fns, exts))
            }
        }
    }

    fn display_nary(
        &self,
        cs: &[ExprId],
        sep: &str,
        fns: &FnTable,
        exts: &[ExternalDecl],
    ) -> String {
        let parts: Vec<String> = cs.iter().map(|c| self.display(*c, fns, exts)).collect();
        format!("({})", parts.join(sep))
    }

    /// Operator-node count of an interned expression (the complexity
    /// weight the simulator charges for runtime metadata).
    pub fn weight(&self, id: ExprId) -> f64 {
        match self.node(id) {
            Expr::Sym(_) | Expr::Ext(_) | Expr::Equal(_) | Expr::Empty(_) => 1.0,
            Expr::Image { src, .. } | Expr::Preimage { src, .. } => 1.0 + self.weight(src),
            Expr::Union(cs) | Expr::Intersect(cs) => {
                (cs.len() as f64 - 1.0) + cs.iter().map(|c| self.weight(*c)).sum::<f64>()
            }
            Expr::Difference(a, b) => 1.0 + self.weight(a) + self.weight(b),
        }
    }
}

fn merge_syms<'a>(
    sets: impl Iterator<Item = &'a Arc<BTreeSet<PSym>>>,
    empty: &Arc<BTreeSet<PSym>>,
) -> Arc<BTreeSet<PSym>> {
    let mut acc: Option<Arc<BTreeSet<PSym>>> = None;
    for s in sets {
        if s.is_empty() {
            continue;
        }
        acc = Some(match acc {
            None => s.clone(),
            Some(a) if a.as_ref() == s.as_ref() => a,
            Some(a) => {
                let mut m = (*a).clone();
                m.extend(s.iter().copied());
                Arc::new(m)
            }
        });
    }
    acc.unwrap_or_else(|| empty.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> RegionId {
        RegionId(i)
    }

    #[test]
    fn dedup_structurally_equal_terms() {
        let a = ExprArena::new();
        let e1 = a.intern(&PExpr::image(PExpr::Equal(r(0)), FnRef::Identity, r(1)));
        let e2 = a.intern(&PExpr::image(PExpr::Equal(r(0)), FnRef::Identity, r(1)));
        assert_eq!(e1, e2);
        let (interned, hits) = a.counters();
        assert!(hits >= 2, "equal(r0) and image both dedup: {hits}");
        assert_eq!(interned, 2);
    }

    #[test]
    fn ac_flatten_sort_dedup() {
        let a = ExprArena::new();
        let x = a.equal(r(0));
        let y = a.sym(PSym(0));
        let z = a.ext(ExtId(0));
        let left = a.union([a.union([y, x]), z]);
        let right = a.union([z, a.union([x, a.union([y, y])])]);
        assert_eq!(left, right);
        match a.node(left) {
            Expr::Union(cs) => {
                assert_eq!(cs.len(), 3);
                let mut sorted = cs.clone();
                sorted.sort_unstable();
                assert_eq!(cs, sorted);
            }
            n => panic!("expected flattened union, got {n:?}"),
        }
        // Idempotence collapses to the operand itself.
        assert_eq!(a.union([x, x]), x);
        assert_eq!(a.intersect([y, y, y]), y);
    }

    #[test]
    fn trivial_identity_folds() {
        let a = ExprArena::new();
        a.register_sym(r(2)); // P0 : r2
        let x = a.equal(r(2));
        let p = a.sym(PSym(0));
        // E − E → ∅ when the region is derivable.
        assert_eq!(a.node(a.difference(x, x)), Expr::Empty(r(2)));
        assert_eq!(a.node(a.difference(p, p)), Expr::Empty(r(2)));
        let empty = a.empty(r(2));
        // ∅ is an identity for ∪ and an annihilator for ∩ / image.
        assert_eq!(a.union([x, empty]), x);
        assert_eq!(a.intersect([x, empty]), empty);
        assert_eq!(a.image(empty, FnRef::Identity, r(3)), a.empty(r(3)));
        assert_eq!(a.preimage(r(4), FnRef::Identity, empty), a.empty(r(4)));
        assert_eq!(a.difference(empty, x), empty);
        assert_eq!(a.difference(x, empty), x);
    }

    #[test]
    fn side_tables_track_closedness_region_syms() {
        let a = ExprArena::new();
        a.register_sym(r(0));
        a.register_ext(r(0));
        let p = a.sym(PSym(0));
        let x = a.ext(ExtId(0));
        let u = a.union([p, x]);
        assert!(!a.is_closed(u));
        assert!(a.is_closed(x));
        assert_eq!(a.region(u), Some(r(0)));
        assert_eq!(a.syms(u).iter().copied().collect::<Vec<_>>(), vec![PSym(0)]);
        // Mixed-region union has no region.
        let bad = a.union([a.equal(r(0)), a.equal(r(1))]);
        assert_eq!(a.region(bad), None);
    }

    #[test]
    fn subst_recanonicalizes() {
        let a = ExprArena::new();
        a.register_sym(r(0));
        let p = a.sym(PSym(0));
        let x = a.equal(r(0));
        // (P0 ∪ equal(r0))[P0 ↦ equal(r0)] = equal(r0).
        let u = a.union([p, x]);
        assert_eq!(a.subst(u, PSym(0), x), x);
        // Substitution into a sym-free expression is the identity (O(1)).
        assert_eq!(a.subst(x, PSym(0), p), x);
        // (P0 − equal(r0))[P0 ↦ equal(r0)] = ∅.
        let d = a.difference(p, x);
        assert_eq!(a.node(a.subst(d, PSym(0), x)), Expr::Empty(r(0)));
    }

    #[test]
    fn pexpr_round_trip_is_canonical() {
        let a = ExprArena::new();
        let e =
            PExpr::union(PExpr::union(PExpr::Equal(r(1)), PExpr::Equal(r(0))), PExpr::Equal(r(1)));
        let id = a.intern(&e);
        let back = a.to_pexpr(id);
        // Canonical: flattened, deduped; re-interning the materialized
        // tree gives the same id.
        assert_eq!(a.intern(&back), id);
    }
}
