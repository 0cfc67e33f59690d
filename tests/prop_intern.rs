//! Properties of the hash-consing arena: interning is semantics-preserving
//! (the canonical normal form evaluates to the same `Partition` as the
//! original tree on random stores and external bindings), idempotent, and
//! respects the AC laws it claims to normalize (associativity,
//! commutativity, idempotence of `∪`/`∩`, and `E − E → ∅`).
//!
//! The reference is `eval_tree`: the DPL operators applied to the tree as
//! written, with no arena, so no normal form sits on both sides of a
//! comparison.

use partir::core::lang::{Expr, ExprArena, ExprId, PExpr};
use partir::dpl::index_set::IndexSet;
use partir::dpl::ops;
use partir::dpl::partition::Partition;
use partir::prelude::*;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

const COLORS: usize = 3;
const CASES: u32 = if cfg!(debug_assertions) { 64 } else { 1000 };

struct World {
    store: Store,
    fns: FnTable,
    exts: ExtBindings,
    a_r: RegionId,
    b_r: RegionId,
    /// External ids, split by region: (externals of A, externals of B).
    ext_a: Vec<PExpr>,
    ext_b: Vec<PExpr>,
    fab: FnRef,
    fbb: FnRef,
}

/// A two-region world with a random pointer field A→B, an affine neighbor
/// function B→B, and two random external partitions per region.
fn build_world(n_a: u64, n_b: u64, seed: u64) -> World {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut schema = Schema::new();
    let a_r = schema.add_region("A", n_a);
    let b_r = schema.add_region("B", n_b);
    let pf = schema.add_field(a_r, "ptr", FieldKind::Ptr(b_r));
    let mut store = Store::new(schema);
    for v in store.ptrs_mut(pf).iter_mut() {
        *v = rng.gen_range(0..n_b);
    }
    let mut fns = FnTable::new();
    let fab = FnRef::Fn(fns.add_ptr_field("ptr", a_r, b_r, pf));
    let fbb = FnRef::Fn(fns.add(
        "wrapB",
        b_r,
        b_r,
        FnDef::Index(IndexFn::AffineMod { mul: 1, add: 1, modulus: n_b }),
    ));

    // Random external partitions: COLORS random (possibly overlapping,
    // possibly incomplete) subregions each — eval does not require more.
    let mut exts = ExtBindings::new();
    let mut random_part = |region: RegionId, size: u64| -> PExpr {
        let sets = (0..COLORS)
            .map(|_| IndexSet::from_indices((0..size).filter(|_| rng.gen_bool(0.4))))
            .collect();
        PExpr::ext(exts.push(Partition::new(region, sets)))
    };
    let ext_a = vec![random_part(a_r, n_a), random_part(a_r, n_a)];
    let ext_b = vec![random_part(b_r, n_b), random_part(b_r, n_b)];
    World { store, fns, exts, a_r, b_r, ext_a, ext_b, fab, fbb }
}

/// A random closed expression over the given region, depth-bounded.
fn gen_expr(w: &World, rng: &mut rand::rngs::StdRng, region: RegionId, depth: u32) -> PExpr {
    let leaf = |rng: &mut rand::rngs::StdRng| -> PExpr {
        let pool = if region == w.a_r { &w.ext_a } else { &w.ext_b };
        match rng.gen_range(0..pool.len() + 1) {
            0 => PExpr::Equal(region),
            i => pool[i - 1].clone(),
        }
    };
    if depth == 0 {
        return leaf(rng);
    }
    match rng.gen_range(0..8) {
        0 => leaf(rng),
        1 => PExpr::union(gen_expr(w, rng, region, depth - 1), gen_expr(w, rng, region, depth - 1)),
        2 => PExpr::intersect(
            gen_expr(w, rng, region, depth - 1),
            gen_expr(w, rng, region, depth - 1),
        ),
        3 => PExpr::difference(
            gen_expr(w, rng, region, depth - 1),
            gen_expr(w, rng, region, depth - 1),
        ),
        // Region-crossing operators, where the function tables allow.
        4 if region == w.b_r => PExpr::image(gen_expr(w, rng, w.a_r, depth - 1), w.fab, w.b_r),
        5 if region == w.b_r => PExpr::image(gen_expr(w, rng, w.b_r, depth - 1), w.fbb, w.b_r),
        6 if region == w.b_r => PExpr::preimage(w.b_r, w.fbb, gen_expr(w, rng, w.b_r, depth - 1)),
        _ if region == w.a_r => PExpr::preimage(w.a_r, w.fab, gen_expr(w, rng, w.b_r, depth - 1)),
        _ => leaf(rng),
    }
}

/// The tree as written, evaluated operator by operator. An identity
/// function clips the source's sets to the target region.
fn eval_tree(w: &World, e: &PExpr) -> Partition {
    let clip = |p: Partition, r: RegionId| {
        let bounds = IndexSet::from_range(0, w.store.schema().region_size(r));
        Partition::new(r, p.iter().map(|s| s.intersect(&bounds)).collect())
    };
    match e {
        PExpr::Sym(s) => panic!("generated expressions are closed: {s:?}"),
        PExpr::Ext(x) => w.exts.get(*x).clone(),
        PExpr::Equal(r) => ops::equal(*r, w.store.schema().region_size(*r), COLORS),
        PExpr::Image { src, f, target } => match f {
            FnRef::Identity => clip(eval_tree(w, src), *target),
            FnRef::Fn(f) => ops::image(&w.store, &w.fns, &eval_tree(w, src), *f, *target),
        },
        PExpr::Preimage { domain, f, src } => match f {
            FnRef::Identity => clip(eval_tree(w, src), *domain),
            FnRef::Fn(f) => ops::preimage(&w.store, &w.fns, *domain, *f, &eval_tree(w, src)),
        },
        PExpr::Union(a, b) => ops::union_pointwise(&eval_tree(w, a), &eval_tree(w, b)),
        PExpr::Intersect(a, b) => ops::intersect_pointwise(&eval_tree(w, a), &eval_tree(w, b)),
        PExpr::Difference(a, b) => ops::difference_pointwise(&eval_tree(w, a), &eval_tree(w, b)),
    }
}

/// Rebuilds an interned node through the arena's constructors.
fn rebuild(a: &ExprArena, id: ExprId) -> ExprId {
    match a.node(id) {
        Expr::Sym(s) => a.sym(s),
        Expr::Ext(x) => a.ext(x),
        Expr::Equal(r) => a.equal(r),
        Expr::Empty(r) => a.empty(r),
        Expr::Image { src, f, target } => a.image(rebuild(a, src), f, target),
        Expr::Preimage { domain, f, src } => a.preimage(domain, f, rebuild(a, src)),
        Expr::Union(cs) => a.union(cs.into_iter().map(|c| rebuild(a, c)).collect::<Vec<_>>()),
        Expr::Intersect(cs) => {
            a.intersect(cs.into_iter().map(|c| rebuild(a, c)).collect::<Vec<_>>())
        }
        Expr::Difference(x, y) => a.difference(rebuild(a, x), rebuild(a, y)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Interning preserves semantics: the canonical normal form, evaluated
    /// by id through the arena, is the partition the tree as written
    /// evaluates to. Rebuilding the normal form through the arena's
    /// constructors is a fixpoint.
    #[test]
    fn intern_round_trips_and_is_idempotent(
        n_a in 8u64..40,
        n_b in 6u64..30,
        seed in any::<u64>(),
        pick_b in any::<bool>(),
        depth in 0u32..4,
    ) {
        let w = build_world(n_a, n_b, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let region = if pick_b { w.b_r } else { w.a_r };
        let e = gen_expr(&w, &mut rng, region, depth);

        let arena = ExprArena::new();
        let id = arena.intern(&e);

        let mut ev = Evaluator::with_arena(&w.store, &w.fns, COLORS, &w.exts, arena.clone());
        prop_assert_eq!(&*ev.eval_id(id), &eval_tree(&w, &e), "normal form changed semantics: {:?}", e);

        // Idempotence: the normal form is already normal.
        prop_assert_eq!(rebuild(&arena, id), id, "normal form not a fixpoint for {:?}", e);
    }

    /// The canonicalizer really implements the AC laws: associativity,
    /// commutativity, and idempotence of `∪`/`∩` all intern to one id, and
    /// `E − E` interns to the empty normal form (which evaluates to
    /// all-empty subregions).
    #[test]
    fn canonical_forms_identify_ac_equal_trees(
        n_a in 8u64..40,
        n_b in 6u64..30,
        seed in any::<u64>(),
        pick_b in any::<bool>(),
    ) {
        let w = build_world(n_a, n_b, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x517c_c1b7);
        let region = if pick_b { w.b_r } else { w.a_r };
        let e1 = gen_expr(&w, &mut rng, region, 2);
        let e2 = gen_expr(&w, &mut rng, region, 2);
        let e3 = gen_expr(&w, &mut rng, region, 2);
        let arena = ExprArena::new();

        // Associativity + commutativity, n-ary flattening.
        let left = PExpr::union(PExpr::union(e1.clone(), e2.clone()), e3.clone());
        let right = PExpr::union(e1.clone(), PExpr::union(e3.clone(), e2.clone()));
        prop_assert_eq!(arena.intern(&left), arena.intern(&right));
        let il = PExpr::intersect(PExpr::intersect(e2.clone(), e1.clone()), e3.clone());
        let ir = PExpr::intersect(e3.clone(), PExpr::intersect(e1.clone(), e2.clone()));
        prop_assert_eq!(arena.intern(&il), arena.intern(&ir));

        // Idempotence: e ∪ e = e, e ∩ e = e.
        prop_assert_eq!(arena.intern(&PExpr::union(e1.clone(), e1.clone())), arena.intern(&e1));
        prop_assert_eq!(
            arena.intern(&PExpr::intersect(e2.clone(), e2.clone())),
            arena.intern(&e2)
        );

        // E − E is the empty normal form and evaluates to nothing.
        let diff = PExpr::difference(e1.clone(), e1.clone());
        let p = Evaluator::new(&w.store, &w.fns, COLORS, &w.exts).eval(&diff);
        prop_assert_eq!(p.num_subregions(), COLORS);
        prop_assert!(p.iter().all(|s| s.is_empty()), "E − E must be empty: {:?}", e1);

        // Dedup soundness on independently generated trees: equal ids must
        // mean equal semantics (the converse need not hold).
        if arena.intern(&e1) == arena.intern(&e2) {
            prop_assert_eq!(eval_tree(&w, &e1), eval_tree(&w, &e2));
        }
    }
}
