//! Solver soundness, empirically: for randomly generated parallelizable
//! loops over randomly populated stores,
//!
//! 1. every constraint of the (post-unification) system — evaluated node by
//!    node to concrete partitions, each symbol standing for the partition
//!    the plan's evaluator builds for its binding — holds: subsets are
//!    subregion-wise subsets, `DISJ`/`COMP` predicates are true of the
//!    evaluated partitions;
//! 2. the auto-parallelized execution on threads equals the sequential
//!    interpreter bit-for-bit (integer-valued data), with dynamic legality
//!    checking on.

use partir::core::lang::{Expr, ExprId, Pred};
use partir::dpl::index_set::IndexSet;
use partir::dpl::ops;
use partir::dpl::partition::Partition;
use partir::prelude::*;
use proptest::prelude::*;

mod common;
use common::{arb_cfg, build};

/// Evaluates an obligation node by node with the DPL operators. It neither
/// substitutes nor normalizes a substituted term: a symbol is the partition
/// the plan's evaluator builds for the symbol's binding. An identity
/// function clips the source's sets to the target region.
fn eval_node(plan: &ParallelPlan, ev: &mut Evaluator, id: ExprId) -> Partition {
    let (store, fns, colors) = (ev.store, ev.fns, ev.n_colors);
    let mut sub = |id| eval_node(plan, ev, id);
    let clip = |p: Partition, r: RegionId| {
        let bounds = IndexSet::from_range(0, store.schema().region_size(r));
        Partition::new(r, p.iter().map(|s| s.intersect(&bounds)).collect())
    };
    let fold = |mut ps: Vec<Partition>, op: fn(&Partition, &Partition) -> Partition| {
        let first = ps.remove(0);
        ps.iter().fold(first, |acc, p| op(&acc, p))
    };
    match plan.system.arena.node(id) {
        Expr::Sym(s) => Partition::clone(&ev.eval_id(plan.solution.id_for(s))),
        Expr::Ext(x) => panic!("generated programs declare no externals: {x:?}"),
        Expr::Equal(r) => ops::equal(r, store.schema().region_size(r), colors),
        Expr::Empty(r) => Partition::new(r, vec![IndexSet::default(); colors]),
        Expr::Image { src, f, target } => match f {
            FnRef::Identity => clip(sub(src), target),
            FnRef::Fn(f) => ops::image(store, fns, &sub(src), f, target),
        },
        Expr::Preimage { domain, f, src } => match f {
            FnRef::Identity => clip(sub(src), domain),
            FnRef::Fn(f) => ops::preimage(store, fns, domain, f, &sub(src)),
        },
        Expr::Union(cs) => fold(cs.into_iter().map(&mut sub).collect(), ops::union_pointwise),
        Expr::Intersect(cs) => {
            fold(cs.into_iter().map(&mut sub).collect(), ops::intersect_pointwise)
        }
        Expr::Difference(a, b) => ops::difference_pointwise(&sub(a), &sub(b)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn constraints_hold_and_execution_matches(cfg in arb_cfg()) {
        // reduce_via_affine alone with reduce_via_ptr exercises relaxation;
        // both false exercises pure reads.
        let built = build(&cfg);
        let schema = built.store.schema().clone();
        let plan = auto_parallelize(
            &built.program,
            &built.fns,
            &schema,
            &Hints::new(),
            Options::default(),
        )
        .expect("generated programs are parallelizable");

        // ---- 1. Every constraint holds on the evaluated partitions. ----
        let no_exts = ExtBindings::new();
        let mut ev = Evaluator::with_arena(
            &built.store,
            &built.fns,
            cfg.colors,
            &no_exts,
            plan.system.arena.clone(),
        );
        let mut eval = |e| eval_node(&plan, &mut ev, e);
        for sub in &plan.system.subset_obligations {
            let lhs = eval(sub.lhs);
            let rhs = eval(sub.rhs);
            prop_assert!(
                lhs.subset_of(&rhs),
                "subset violated: {:?} ⊆ {:?}",
                sub.lhs,
                sub.rhs
            );
        }
        for pred in &plan.system.pred_obligations {
            match pred {
                Pred::Disj(e) => {
                    let p = eval(*e);
                    prop_assert!(p.is_disjoint(), "DISJ violated: {e:?}");
                }
                Pred::Comp(e, r) => {
                    let p = eval(*e);
                    let size = schema.region_size(*r);
                    prop_assert!(p.is_complete(size), "COMP violated: {e:?}");
                }
                Pred::Part(e, r) => {
                    let p = eval(*e);
                    let size = schema.region_size(*r);
                    prop_assert!(p.is_partition_of(size), "PART violated: {e:?}");
                }
            }
        }

        // ---- 2. Parallel execution ≡ sequential, legality checks on. ----
        let parts = plan.evaluate(&built.store, &built.fns, cfg.colors, &ExtBindings::new());
        let mut seq = built.store.clone();
        run_program_seq(&built.program, &mut seq, &built.fns);
        let mut par = built.store.clone();
        let report = execute_ranks(
            &built.program,
            &plan,
            &parts,
            Layout::InPlace { workers: 3 },
            &mut par,
            &built.fns,
            &DistOptions::default(),
        );
        let report = match report {
            Ok(r) => r,
            Err(e) => return Err(TestCaseError::fail(format!("exec failed: {e}"))),
        };
        for f in 0..schema.num_fields() {
            let fid = partir::dpl::region::FieldId(f as u32);
            if let partir::dpl::region::FieldData::F64(sv) = seq.field_data(fid) {
                let partir::dpl::region::FieldData::F64(pv) = par.field_data(fid) else {
                    unreachable!()
                };
                prop_assert_eq!(sv, pv, "field {:?} diverged (cfg {:?})", fid, cfg);
            }
        }
        let _ = report;
    }

    /// Robustness property: a random fault schedule (clean kills, bounded
    /// retries, sequential recovery as last resort) never changes results —
    /// the fault-injected executor's final stores stay bit-identical to the
    /// sequential interpreter — and replaying the same `FaultPlan` seed
    /// reproduces the identical report, timings aside.
    #[test]
    fn fault_injected_execution_matches_sequential(
        cfg in arb_cfg(),
        fault_seed in any::<u64>(),
        rate_pct in 0u32..=100,
    ) {
        let built = build(&cfg);
        let schema = built.store.schema().clone();
        let plan = auto_parallelize(
            &built.program,
            &built.fns,
            &schema,
            &Hints::new(),
            Options::default(),
        )
        .expect("generated programs are parallelizable");
        let parts = plan.evaluate(&built.store, &built.fns, cfg.colors, &ExtBindings::new());
        let mut seq = built.store.clone();
        run_program_seq(&built.program, &mut seq, &built.fns);

        let opts = DistOptions {
            fault: Some(FaultPlan { task_failure_rate: rate_pct as f64 / 100.0, ..FaultPlan::quiescent(fault_seed) }),
            ..DistOptions::default()
        };
        let run = |label: &str| -> Result<(DistReport, Store), TestCaseError> {
            let mut par = built.store.clone();
            let report = execute_ranks(
                &built.program,
                &plan,
                &parts,
                Layout::InPlace { workers: 3 },
                &mut par,
                &built.fns,
                &opts,
            )
            .map_err(|e| TestCaseError::fail(format!("{label} exec failed: {e}")))?;
            Ok((report.report, par))
        };
        let (r1, s1) = run("first")?;
        let (r2, s2) = run("replay")?;

        for f in 0..schema.num_fields() {
            let fid = partir::dpl::region::FieldId(f as u32);
            if let partir::dpl::region::FieldData::F64(sv) = seq.field_data(fid) {
                let partir::dpl::region::FieldData::F64(pv) = s1.field_data(fid) else {
                    unreachable!()
                };
                prop_assert_eq!(sv, pv, "field {:?} diverged under faults (cfg {:?})", fid, cfg);
                let partir::dpl::region::FieldData::F64(rv) = s2.field_data(fid) else {
                    unreachable!()
                };
                prop_assert_eq!(sv, rv, "replay diverged on field {:?}", fid);
            }
        }
        // The whole report replays; only the wall-clock timings may differ.
        let counts = |r: &DistReport| {
            let mut r = *r;
            (r.pack_ns, r.exchange_wait_ns, r.unpack_ns, r.compute_ns, r.merge_ns) = (0, 0, 0, 0, 0);
            r.to_json().to_string()
        };
        prop_assert_eq!(
            counts(&r1),
            counts(&r2),
            "identical seeds must replay identical fault/retry/recovery counts"
        );
        if rate_pct == 0 {
            prop_assert_eq!(r1.faults_injected, 0);
        }
    }
}
