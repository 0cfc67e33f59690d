//! Section 4 — the generalized `IMAGE`/`PREIMAGE` operators and the lemma
//! restrictions they impose: L12 (preimage preserves disjointness) and L14
//! (the image/preimage adjunction) hold for single-valued functions but
//! NOT for set-valued ones, and both the lemma engine and the solver must
//! respect that.

use partir::prelude::*;

fn setup() -> (Store, FnTable, RegionId, RegionId, FnId, FnId) {
    // Y rows with ranges into Mat (CSR-style multi-function), plus a
    // single-valued comparator function.
    let mut schema = Schema::new();
    let mat = schema.add_region("Mat", 30);
    let y = schema.add_region("Y", 6);
    let rf = schema.add_field(y, "range", FieldKind::Range(mat));
    let mut store = Store::new(schema);
    // Overlapping ranges: rows 0/1 share entries 4..6.
    // Row 1 spans Mat blocks 0 and 1 (4..12 crosses the 10 boundary).
    let bounds = [(0u64, 6u64), (4, 12), (10, 15), (15, 20), (20, 25), (25, 30)];
    store.ranges_mut(rf).copy_from_slice(&bounds);
    let mut fns = FnTable::new();
    let multi = fns.add_range_field("Ranges", y, mat, rf);
    let single = fns.add_affine("five", y, mat, 5, 0);
    (store, fns, y, mat, multi, single)
}

#[test]
fn multi_preimage_is_not_disjoint_and_lemma_engine_knows() {
    let (store, fns, y, mat, multi, single) = setup();
    // Concretely: PREIMAGE of a disjoint partition through overlapping
    // ranges is NOT disjoint.
    let pm = partir::dpl::ops::equal(mat, 30, 3);
    let py = partir::dpl::ops::preimage(&store, &fns, y, multi, &pm);
    assert!(!py.is_disjoint(), "row 1 lands in two Mat blocks");

    // The lemma engine must refuse L12 for the multi-function...
    let sys = System::new();
    let ctx = FactCtx::new(&sys, &fns);
    let pre_multi = sys.intern(PExpr::preimage(y, FnRef::Fn(multi), PExpr::Equal(mat)));
    assert!(!prove_disj(pre_multi, &ctx), "L12 does not hold for PREIMAGE");
    // ...but accept it for the single-valued one.
    let pre_single = sys.intern(PExpr::preimage(y, FnRef::Fn(single), PExpr::Equal(mat)));
    assert!(prove_disj(pre_single, &ctx), "L12 holds for preimage");

    // L14 likewise: the adjunction is usable only for single-valued f.
    let equal_mat = sys.intern(PExpr::Equal(mat));
    let img_single = sys.arena.image(pre_single, FnRef::Fn(single), mat);
    assert!(entails_subset(img_single, equal_mat, &ctx));
    let img_multi = sys.arena.image(pre_multi, FnRef::Fn(multi), mat);
    assert!(!entails_subset(img_multi, equal_mat, &ctx), "L14 does not hold for IMAGE/PREIMAGE");
}

#[test]
fn solver_never_uses_preimage_for_multi_functions() {
    let (_store, fns, y, mat, multi, _single) = setup();
    // IMAGE(P1, Ranges, Mat) ⊆ P2 with DISJ(P2): for a single-valued f the
    // solver would answer P2 = equal, P1 = preimage (Example 3). For the
    // multi-function that preimage is not disjoint, so a DISJ(P1)
    // requirement must make the system unsatisfiable rather than produce
    // an unsound plan.
    let mut sys = System::new();
    let p1 = sys.fresh_sym(y, "iter");
    let p2 = sys.fresh_sym(mat, "inner");
    sys.require_comp(PExpr::sym(p1), y);
    sys.require_disj(PExpr::sym(p1));
    sys.require_subset(PExpr::image(PExpr::sym(p1), FnRef::Fn(multi), mat), PExpr::sym(p2));
    sys.require_disj(PExpr::sym(p2));
    assert!(
        solve(&sys, &fns).is_err(),
        "no sound solution exists: DISJ on both sides of an IMAGE constraint"
    );

    // Without DISJ(P2) the trivial strategy works: P1 = equal(Y),
    // P2 = IMAGE(P1, Ranges, Mat) — Figure 10's solution.
    let mut sys = System::new();
    let p1 = sys.fresh_sym(y, "iter");
    let p2 = sys.fresh_sym(mat, "inner");
    sys.require_comp(PExpr::sym(p1), y);
    sys.require_disj(PExpr::sym(p1));
    sys.require_subset(PExpr::image(PExpr::sym(p1), FnRef::Fn(multi), mat), PExpr::sym(p2));
    let sol = solve(&sys, &fns).expect("Figure 10 shape solvable");
    assert_eq!(sol.id_for(p1), sys.intern(PExpr::Equal(y)));
    assert!(matches!(sys.arena.node(sol.id_for(p2)), partir::core::lang::Expr::Image { .. }));
}

#[test]
fn csr_with_overlapping_rows_executes_correctly() {
    // End-to-end: a CSR-like loop whose row ranges overlap (two rows share
    // matrix entries — reads may be replicated across tasks, which is
    // legal). Auto-parallelized execution must match the interpreter.
    let (store, fns, y, mat, multi, _single) = setup();
    let mut schema = store.schema().clone();
    // Rebuild with value fields.
    let yv = schema.add_field(y, "val", FieldKind::F64);
    let mv = schema.add_field(mat, "val", FieldKind::F64);
    let mut store2 = Store::new(schema.clone());
    store2
        .ranges_mut(partir::dpl::region::FieldId(0))
        .copy_from_slice(store.ranges(partir::dpl::region::FieldId(0)));
    for (i, v) in store2.f64s_mut(mv).iter_mut().enumerate() {
        *v = (i % 5 + 1) as f64;
    }

    let mut b = LoopBuilder::new("rowsum", y);
    let i = b.loop_var();
    let k = b.begin_for_each(multi, i);
    let v = b.val_read(mat, mv, k);
    b.val_reduce(y, yv, i, ReduceOp::Add, VExpr::var(v));
    b.end_for_each();
    let program = vec![b.finish()];

    let plan = auto_parallelize(&program, &fns, &schema, &Hints::new(), Options::default())
        .expect("parallelizable");
    let parts = plan.evaluate(&store2, &fns, 3, &ExtBindings::new());
    // The Mat access partition overlaps (rows 0/1 share entries) — that is
    // fine for reads.
    let mut seq = store2.clone();
    run_program_seq(&program, &mut seq, &fns);
    let mut par = store2.clone();
    let threads = Layout::InPlace { workers: 3 };
    execute_ranks(&program, &plan, &parts, threads, &mut par, &fns, &DistOptions::default())
        .expect("parallel CSR with overlapping rows");
    assert_eq!(seq.f64s(yv), par.f64s(yv));
}
