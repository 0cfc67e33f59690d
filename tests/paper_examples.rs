//! Integration tests that walk the paper's own worked examples through the
//! public API, end to end.

use partir::core::lang::Expr;
use partir::prelude::*;

/// Figure 1 / Figure 2: the particles/cells program solves to "program B"
/// — an equal partition of Cells, a preimage partition of Particles, and
/// one image partition for the neighbor accesses (fewest partitions).
#[test]
fn figure1_synthesizes_program_b() {
    let n_cells = 100u64;
    let mut schema = Schema::new();
    let cells = schema.add_region("Cells", n_cells);
    let particles = schema.add_region("Particles", 1000);
    let cell_f = schema.add_field(particles, "cell", FieldKind::Ptr(cells));
    let pos = schema.add_field(particles, "pos", FieldKind::F64);
    let vel = schema.add_field(cells, "vel", FieldKind::F64);
    let acc = schema.add_field(cells, "acc", FieldKind::F64);
    let mut fns = FnTable::new();
    let fcell = fns.add_ptr_field("Particles[.].cell", particles, cells, cell_f);
    let h = fns.add(
        "h",
        cells,
        cells,
        FnDef::Index(IndexFn::AffineMod { mul: 1, add: 1, modulus: n_cells }),
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

    let plan = auto_parallelize(&[l1, l2], &fns, &schema, &Hints::new(), Options::default())
        .expect("parallelizable");
    // Program B: exactly three distinct partitions.
    assert_eq!(plan.num_partitions(), 3, "{}", plan.render_dpl(&fns));
    let dpl = plan.render_dpl(&fns);
    assert!(dpl.contains("preimage"), "Particles derived by preimage:\n{dpl}");
    assert!(dpl.contains("equal"), "Cells gets the equal partition:\n{dpl}");
    assert!(dpl.contains("image"), "h-neighbors by image:\n{dpl}");
}

/// Examples 2 & 3: the DISJ predicate on the reduction target flips the
/// strategy from image-of-equal to preimage-of-equal.
#[test]
fn examples_2_and_3_via_solver() {
    let mut schema = Schema::new();
    let r = schema.add_region("R", 10);
    let s = schema.add_region("S", 10);
    let mut fns = FnTable::new();
    let g = FnRef::Fn(fns.add_affine("g", r, s, 1, 0));

    // Example 2 system.
    let mut sys = System::new();
    let p1 = sys.fresh_sym(r, "p1");
    let p2 = sys.fresh_sym(s, "p2");
    sys.require_comp(PExpr::sym(p1), r);
    sys.require_disj(PExpr::sym(p1));
    sys.require_subset(PExpr::image(PExpr::sym(p1), g, s), PExpr::sym(p2));
    let sol = solve(&sys, &fns).unwrap();
    assert_eq!(sol.id_for(p1), sys.intern(PExpr::Equal(r)));
    assert!(matches!(sys.arena.node(sol.id_for(p2)), Expr::Image { .. }));

    // Example 3: add DISJ(P2).
    sys.require_disj(PExpr::sym(p2));
    let sol = solve(&sys, &fns).unwrap();
    assert_eq!(sol.id_for(p2), sys.intern(PExpr::Equal(s)));
    assert!(matches!(sys.arena.node(sol.id_for(p1)), Expr::Preimage { .. }));
}

/// Theorem 5.1, validated empirically: the synthesized private
/// sub-partition expression evaluates to a disjoint sub-partition of the
/// image partition, and its complement covers every element shared between
/// tasks.
#[test]
fn theorem_5_1_empirical() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    for trial in 0..20 {
        let n_src = 200u64;
        let n_dst = 60u64;
        let mut schema = Schema::new();
        let src_r = schema.add_region("Src", n_src);
        let dst_r = schema.add_region("Dst", n_dst);
        let pf = schema.add_field(src_r, "ptr", FieldKind::Ptr(dst_r));
        let mut store = Store::new(schema);
        for v in store.ptrs_mut(pf).iter_mut() {
            *v = rng.gen_range(0..n_dst);
        }
        let mut fns = FnTable::new();
        let f = FnRef::Fn(fns.add_ptr_field("ptr", src_r, dst_r, pf));

        // P: a disjoint partition of Src. fS(P) = image(P, f, Dst).
        let colors = 2 + (trial % 5);
        let p_expr = PExpr::Equal(src_r);
        let img = PExpr::image(p_expr.clone(), f, dst_r);

        let sys = System::new();
        let img_id = sys.intern(&img);
        let ctx = FactCtx::new(&sys, &fns);
        let private_id =
            partir::core::optimize::private_subpartition(img_id, &ctx).expect("constructible");

        let exts = ExtBindings::new();
        let mut ev = Evaluator::with_arena(&store, &fns, colors, &exts, sys.arena.clone());
        let img_part = ev.eval_id(img_id);
        let private = ev.eval_id(private_id);

        // (a) Pp ⊆ fS(P); (b) DISJ(Pp).
        assert!(private.subset_of(&img_part), "trial {trial}");
        assert!(private.is_disjoint(), "trial {trial}");
        // (c) every element of fS(P)[i] that no other task's image touches
        // is in Pp[i] (the private part is exactly the non-shared part).
        for i in 0..img_part.num_subregions() {
            let mut others = partir::dpl::index_set::IndexSet::new();
            for j in 0..img_part.num_subregions() {
                if j != i {
                    others = others.union(img_part.subregion(j));
                }
            }
            let exclusive = img_part.subregion(i).difference(&others);
            assert!(
                exclusive.is_subset(private.subregion(i)),
                "trial {trial}: private part must contain all exclusive elements"
            );
            // And Pp[i] never contains an element another task also images.
            assert!(
                private.subregion(i).is_disjoint(&others),
                "trial {trial}: private part leaked a shared element"
            );
        }
    }
}

/// The Figure 4 scenario: user invariants discharge the inferred
/// constraints, and the solver emits only the remaining derived partition
/// (`P3 = P5 = image(pCells, h, Cells)` in Example 6).
#[test]
fn figure4_user_invariant_discharges_constraints() {
    let n_cells = 100u64;
    let n_particles = 400u64;
    let mut schema = Schema::new();
    let cells = schema.add_region("Cells", n_cells);
    let particles = schema.add_region("Particles", n_particles);
    let cell_f = schema.add_field(particles, "cell", FieldKind::Ptr(cells));
    let pos = schema.add_field(particles, "pos", FieldKind::F64);
    let vel = schema.add_field(cells, "vel", FieldKind::F64);
    let mut fns = FnTable::new();
    let fcell = fns.add_ptr_field("cell", particles, cells, cell_f);
    let h = fns.add(
        "h",
        cells,
        cells,
        FnDef::Index(IndexFn::AffineMod { mul: 1, add: 1, modulus: n_cells }),
    );

    let mut b = LoopBuilder::new("particles", particles);
    let p = b.loop_var();
    let c = b.idx_read(particles, cell_f, p, fcell);
    let v1 = b.val_read(cells, vel, c);
    let hc = b.idx_apply(h, c);
    let v2 = b.val_read(cells, vel, hc);
    b.val_reduce(particles, pos, p, ReduceOp::Add, VExpr::add(VExpr::var(v1), VExpr::var(v2)));
    let program = vec![b.finish()];

    let mut hints = Hints::new();
    let p_particles = hints.external("pParticles", particles);
    let p_cells = hints.external("pCells", cells);
    hints.fact_subset(
        PExpr::image(PExpr::ext(p_particles), FnRef::Fn(fcell), cells),
        PExpr::ext(p_cells),
    );
    hints.fact_disj(PExpr::ext(p_particles));
    hints.fact_comp(PExpr::ext(p_particles), particles);

    let plan = auto_parallelize(&program, &fns, &schema, &hints, Options::default()).unwrap();
    let dpl = plan.render_dpl(&fns);
    assert!(dpl.contains("pParticles"), "{dpl}");
    assert!(dpl.contains("image(pCells, h"), "P3 = image(pCells, h, Cells):\n{dpl}");
    // Exactly three partitions: the two externals plus the derived image.
    assert_eq!(plan.num_partitions(), 3, "{dpl}");

    // Runtime check with consistent external bindings: clustered particles.
    let mut store = Store::new(schema);
    for (i, ptr) in store.ptrs_mut(cell_f).iter_mut().enumerate() {
        *ptr = (i as u64) / (n_particles / n_cells);
    }
    for (i, v) in store.f64s_mut(vel).iter_mut().enumerate() {
        *v = (i % 7) as f64;
    }
    let colors = 4;
    let mut exts = ExtBindings::new();
    exts.push(partir::dpl::ops::equal(particles, n_particles, colors));
    exts.push(partir::dpl::ops::equal(cells, n_cells, colors));

    let parts = plan.evaluate(&store, &fns, colors, &exts);
    let mut seq = store.clone();
    run_program_seq(&program, &mut seq, &fns);
    let mut par = store.clone();
    execute_ranks(
        &program,
        &plan,
        &parts,
        Layout::InPlace { workers: 4 },
        &mut par,
        &fns,
        &DistOptions::default(),
    )
    .expect("parallel execution with hints");
    assert_eq!(seq.f64s(pos), par.f64s(pos));
}

/// Figure 11 / Figure 12: the relaxed guarded loop computes the same
/// function as the original, with an aliased iteration partition.
#[test]
fn figure11_relaxed_execution_matches_figure12_semantics() {
    let n = 60u64;
    let mut schema = Schema::new();
    let r = schema.add_region("R", n);
    let s = schema.add_region("S", n);
    let rx = schema.add_field(r, "x", FieldKind::F64);
    let sx = schema.add_field(s, "x", FieldKind::F64);
    let mut fns = FnTable::new();
    let f = fns.add("f", r, s, FnDef::Index(IndexFn::AffineMod { mul: 1, add: 0, modulus: n }));
    let g = fns.add("g", r, s, FnDef::Index(IndexFn::AffineMod { mul: 1, add: 1, modulus: n }));

    let mut b = LoopBuilder::new("fig11", r);
    let i = b.loop_var();
    let v = b.val_read(r, rx, i);
    let fi = b.idx_apply(f, i);
    b.val_reduce(s, sx, fi, ReduceOp::Add, VExpr::var(v));
    let gi = b.idx_apply(g, i);
    b.val_reduce(s, sx, gi, ReduceOp::Add, VExpr::var(v));
    let program = vec![b.finish()];

    let mut store = Store::new(schema.clone());
    for (i, v) in store.f64s_mut(rx).iter_mut().enumerate() {
        *v = (i + 1) as f64;
    }

    let plan =
        auto_parallelize(&program, &fns, &schema, &Hints::new(), Options::default()).unwrap();
    assert!(plan.loops[0].relaxed);

    let parts = plan.evaluate(&store, &fns, 5, &ExtBindings::new());
    // The iteration partition is aliased (union of preimages), as in
    // Figure 12's example execution.
    let iter = &parts[plan.loops[0].iter.0 as usize];
    assert!(!iter.is_disjoint(), "relaxed iteration partitions overlap");
    assert!(iter.is_complete(n));

    let mut seq = store.clone();
    run_program_seq(&program, &mut seq, &fns);
    let mut par = store.clone();
    let report = execute_ranks(
        &program,
        &plan,
        &parts,
        Layout::InPlace { workers: 4 },
        &mut par,
        &fns,
        &DistOptions::default(),
    )
    .unwrap()
    .report;
    assert_eq!(seq.f64s(sx), par.f64s(sx), "each contribution applied exactly once");
    assert!(report.guard_skips > 0, "guards skipped duplicated contributions");
    assert_eq!(report.buffer_bytes, 0);
}
