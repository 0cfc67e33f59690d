//! Evaluation of closed partition expressions to concrete [`Partition`]s.
//!
//! The solver's output (and the extra expressions synthesized by the
//! Section 5 optimizations) are closed expressions over `equal`, `image`,
//! `preimage`, `∪`, `∩`, `−`, and external partitions. This module turns
//! them into real partitions against a store, memoizing on interned
//! [`ExprId`]s: canonically equal subexpressions (not just structurally
//! equal trees) share one materialized partition, and memo hits return a
//! shared `Arc` instead of deep-copying index-set runs, so the
//! common-subexpression sharing in solutions ("P3 = P1") costs nothing at
//! runtime.

use crate::lang::{Expr, ExprArena, ExprId, ExtId, FnRef, PExpr};
use partir_dpl::func::FnTable;
use partir_dpl::index_set::IndexSet;
use partir_dpl::ops;
use partir_dpl::partition::Partition;
use partir_dpl::region::{RegionId, Store};
use std::collections::HashMap;
use std::sync::Arc;

/// Concrete partitions for the external symbols of a system (indexed by
/// [`ExtId`]).
#[derive(Clone, Debug, Default, Hash)]
pub struct ExtBindings {
    parts: Vec<Partition>,
}

impl ExtBindings {
    pub fn new() -> Self {
        ExtBindings::default()
    }

    /// Binds the next external id (ids are allocated in declaration order).
    pub fn push(&mut self, p: Partition) -> ExtId {
        self.parts.push(p);
        ExtId(self.parts.len() as u32 - 1)
    }

    pub fn get(&self, e: ExtId) -> &Partition {
        &self.parts[e.0 as usize]
    }

    pub fn len(&self) -> usize {
        self.parts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

/// Evaluator with id-keyed memoization over an interning arena.
pub struct Evaluator<'a> {
    pub store: &'a Store,
    pub fns: &'a FnTable,
    /// Number of subregions for `equal` partitions (the paper elides this
    /// from constraints; it is the launch-space size at runtime).
    pub n_colors: usize,
    pub exts: &'a ExtBindings,
    arena: ExprArena,
    memo: HashMap<ExprId, Arc<Partition>>,
    cache_hits: u64,
}

impl<'a> Evaluator<'a> {
    /// Evaluator with a private arena (tree-form [`PExpr`] inputs are
    /// interned on the way in).
    pub fn new(store: &'a Store, fns: &'a FnTable, n_colors: usize, exts: &'a ExtBindings) -> Self {
        Self::with_arena(store, fns, n_colors, exts, ExprArena::new())
    }

    /// Evaluator sharing an existing arena (ids from that arena can be
    /// evaluated directly).
    pub fn with_arena(
        store: &'a Store,
        fns: &'a FnTable,
        n_colors: usize,
        exts: &'a ExtBindings,
        arena: ExprArena,
    ) -> Self {
        Evaluator { store, fns, n_colors, exts, arena, memo: HashMap::new(), cache_hits: 0 }
    }

    /// Number of distinct partitions materialized so far.
    pub fn partitions_built(&self) -> usize {
        self.memo.len()
    }

    /// Memo hits answered with a shared partition (`eval.cache_hit`).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Evaluates a tree-form expression (interning it first).
    pub fn eval(&mut self, e: &PExpr) -> Arc<Partition> {
        let id = self.arena.intern(e);
        self.eval_id(id)
    }

    /// Evaluates an interned closed expression; panics on unresolved
    /// symbols. Memo hits share the partition (no deep copy).
    pub fn eval_id(&mut self, id: ExprId) -> Arc<Partition> {
        if let Some(p) = self.memo.get(&id) {
            self.cache_hits += 1;
            return p.clone();
        }
        let result = match self.arena.node(id) {
            Expr::Sym(s) => panic!("cannot evaluate unresolved symbol {s:?}"),
            Expr::Ext(x) => self.exts.get(x).clone(),
            Expr::Equal(r) => {
                let size = self.store.schema().region_size(r);
                ops::equal(r, size, self.n_colors)
            }
            Expr::Empty(r) => Partition::new(r, vec![IndexSet::default(); self.n_colors]),
            Expr::Image { src, f, target } => {
                let sp = self.eval_id(src);
                match f {
                    FnRef::Identity => reinterpret(&sp, target, self.store),
                    FnRef::Fn(fid) => ops::image(self.store, self.fns, &sp, fid, target),
                }
            }
            Expr::Preimage { domain, f, src } => {
                let sp = self.eval_id(src);
                match f {
                    FnRef::Identity => reinterpret(&sp, domain, self.store),
                    FnRef::Fn(fid) => ops::preimage(self.store, self.fns, domain, fid, &sp),
                }
            }
            Expr::Union(cs) => self.eval_nary(&cs, ops::union_pointwise),
            Expr::Intersect(cs) => self.eval_nary(&cs, ops::intersect_pointwise),
            Expr::Difference(a, b) => {
                let (pa, pb) = (self.eval_id(a), self.eval_id(b));
                ops::difference_pointwise(&pa, &pb)
            }
        };
        let shared = Arc::new(result);
        self.memo.insert(id, shared.clone());
        shared
    }

    fn eval_nary(
        &mut self,
        cs: &[ExprId],
        op: fn(&Partition, &Partition) -> Partition,
    ) -> Partition {
        let mut it = cs.iter();
        let first = self.eval_id(*it.next().expect("n-ary node with no children"));
        let mut acc = (*first).clone();
        for c in it {
            let p = self.eval_id(*c);
            acc = op(&acc, &p);
        }
        acc
    }
}

/// `image`/`preimage` under the identity function: the same index sets
/// reinterpreted as subregions of another region (clipped to its bounds).
fn reinterpret(p: &Partition, target: RegionId, store: &Store) -> Partition {
    let size = store.schema().region_size(target);
    let bounds = IndexSet::from_range(0, size);
    Partition::new(target, p.iter().map(|s| s.intersect(&bounds)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_dpl::region::{FieldKind, Schema};

    fn setup() -> (Store, FnTable, RegionId, RegionId, FnRef) {
        let mut schema = Schema::new();
        let r = schema.add_region("R", 12);
        let s = schema.add_region("S", 6);
        let pf = schema.add_field(r, "ptr", FieldKind::Ptr(s));
        let mut store = Store::new(schema);
        for (i, p) in store.ptrs_mut(pf).iter_mut().enumerate() {
            *p = (i as u64) % 6;
        }
        let mut fns = FnTable::new();
        let f = fns.add_ptr_field("ptr", r, s, pf);
        (store, fns, r, s, FnRef::Fn(f))
    }

    #[test]
    fn eval_equal_image_preimage() {
        let (store, fns, r, s, f) = setup();
        let exts = ExtBindings::new();
        let mut ev = Evaluator::new(&store, &fns, 3, &exts);
        let eq = ev.eval(&PExpr::Equal(s));
        assert_eq!(eq.num_subregions(), 3);
        assert!(eq.is_disjoint() && eq.is_complete(6));
        let pre = ev.eval(&PExpr::preimage(r, f, PExpr::Equal(s)));
        assert!(pre.is_disjoint() && pre.is_complete(12));
        let img = ev.eval(&PExpr::image(PExpr::preimage(r, f, PExpr::Equal(s)), f, s));
        assert!(img.subset_of(&eq));
    }

    #[test]
    fn memoization_shares_subexpressions() {
        let (store, fns, r, s, f) = setup();
        let exts = ExtBindings::new();
        let mut ev = Evaluator::new(&store, &fns, 2, &exts);
        let pre = PExpr::preimage(r, f, PExpr::Equal(s));
        // Canonicalization folds pre ∪ pre to pre itself, so evaluating
        // the union builds no extra partition and hits the memo.
        let u = PExpr::union(pre.clone(), pre.clone());
        let got = ev.eval(&u);
        let single = ev.eval(&pre);
        assert_eq!(*got, *single);
        // equal(S) and preimage: 2 distinct expressions.
        assert_eq!(ev.partitions_built(), 2);
        // The second lookup was served from the cache, sharing storage.
        assert!(ev.cache_hits() >= 1);
        assert!(Arc::ptr_eq(&got, &single));
    }

    #[test]
    fn external_bindings() {
        let (store, fns, _r, s, _) = setup();
        let mut exts = ExtBindings::new();
        let manual =
            Partition::new(s, vec![IndexSet::from_range(0, 1), IndexSet::from_range(1, 6)]);
        let x = exts.push(manual.clone());
        let mut ev = Evaluator::new(&store, &fns, 2, &exts);
        assert_eq!(*ev.eval(&PExpr::ext(x)), manual);
    }

    #[test]
    fn identity_reinterprets_and_clips() {
        let (store, fns, r, s, _) = setup();
        let exts = ExtBindings::new();
        let mut ev = Evaluator::new(&store, &fns, 2, &exts);
        // equal(R) has subregions {0..6} and {6..12}; reinterpreted in S
        // (size 6) they clip to {0..6} and {}.
        let e = PExpr::image(PExpr::Equal(r), FnRef::Identity, s);
        let p = ev.eval(&e);
        assert_eq!(p.subregion(0), &IndexSet::from_range(0, 6));
        assert!(p.subregion(1).is_empty());
    }

    /// Identity and shifts are run algebra all the way through the
    /// evaluator: regions of 2^40 elements, which nothing could visit.
    #[test]
    fn regions_too_large_to_visit_evaluate_in_closed_form() {
        const N: u64 = 1 << 40;
        let mut schema = Schema::new();
        let r = schema.add_region("R", N);
        let half = schema.add_region("Half", N / 2);
        let store = Store::new(schema);
        let mut fns = FnTable::new();
        let next = FnRef::Fn(fns.add_affine("next", r, r, 1, 1));
        let exts = ExtBindings::new();
        let mut ev = Evaluator::new(&store, &fns, 4, &exts);
        let clipped = ev.eval(&PExpr::image(PExpr::Equal(r), FnRef::Identity, half));
        let runs = |p: &Partition| p.iter().map(|s| s.runs().to_vec()).collect::<Vec<_>>();
        assert_eq!(runs(&clipped), [vec![(0, N / 4)], vec![(N / 4, N / 2)], vec![], vec![]]);
        let widened = ev.eval(&PExpr::preimage(r, FnRef::Identity, PExpr::Equal(half)));
        assert_eq!(*widened, ops::equal(r, N / 2, 4));
        let shifted = ev.eval(&PExpr::image(PExpr::Equal(r), next, r));
        assert_eq!(shifted.subregion(3).runs(), [(3 * (N / 4) + 1, N)]);
        let back = ev.eval(&PExpr::preimage(r, next, PExpr::Equal(r)));
        assert_eq!(back.subregion(0).runs(), [(0, N / 4 - 1)]);
    }

    #[test]
    fn empty_normal_form_evaluates_to_empty_subregions() {
        let (store, fns, r, _s, _) = setup();
        let exts = ExtBindings::new();
        let mut ev = Evaluator::new(&store, &fns, 3, &exts);
        // equal(R) − equal(R) canonicalizes to ∅(R): n_colors empty sets.
        let p = ev.eval(&PExpr::difference(PExpr::Equal(r), PExpr::Equal(r)));
        assert_eq!(p.num_subregions(), 3);
        assert!(p.iter().all(|s| s.is_empty()));
        assert_eq!(p.region, r);
    }
}
