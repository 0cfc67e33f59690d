//! Solver soundness, empirically: for randomly generated parallelizable
//! loops over randomly populated stores,
//!
//! 1. every constraint of the (post-unification) system — substituted with
//!    the solver's bindings and evaluated to concrete partitions — holds:
//!    subsets are subregion-wise subsets, `DISJ`/`COMP` predicates are true
//!    of the evaluated partitions;
//! 2. the auto-parallelized execution on threads equals the sequential
//!    interpreter bit-for-bit (integer-valued data), with dynamic legality
//!    checking on.

use partir::prelude::*;
use proptest::prelude::*;

mod common;
use common::{arb_cfg, build};

/// Evaluates a closed expression through the plan's evaluator.
fn eval_closed(
    e: &partir::core::lang::PExpr,
    store: &Store,
    fns: &FnTable,
    colors: usize,
) -> std::sync::Arc<partir::dpl::partition::Partition> {
    let exts = ExtBindings::new();
    let mut ev = Evaluator::new(store, fns, colors, &exts);
    ev.eval(e)
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
        let subst = |e: &partir::core::lang::PExpr| -> partir::core::lang::PExpr {
            let mut out = e.clone();
            let mut syms = std::collections::BTreeSet::new();
            out.syms(&mut syms);
            for s in syms {
                out = out.subst(s, plan.solution.expr_for(s));
            }
            out
        };
        let arena = &plan.system.arena;
        for sub in &plan.system.subset_obligations {
            let lhs = eval_closed(&subst(&arena.to_pexpr(sub.lhs)), &built.store, &built.fns, cfg.colors);
            let rhs = eval_closed(&subst(&arena.to_pexpr(sub.rhs)), &built.store, &built.fns, cfg.colors);
            prop_assert!(
                lhs.subset_of(&rhs),
                "subset violated: {:?} ⊆ {:?}",
                sub.lhs,
                sub.rhs
            );
        }
        for pred in &plan.system.pred_obligations {
            match pred {
                partir::core::lang::Pred::Disj(e) => {
                    let p = eval_closed(&subst(&arena.to_pexpr(*e)), &built.store, &built.fns, cfg.colors);
                    prop_assert!(p.is_disjoint(), "DISJ violated: {e:?}");
                }
                partir::core::lang::Pred::Comp(e, r) => {
                    let p = eval_closed(&subst(&arena.to_pexpr(*e)), &built.store, &built.fns, cfg.colors);
                    let size = schema.region_size(*r);
                    prop_assert!(p.is_complete(size), "COMP violated: {e:?}");
                }
                partir::core::lang::Pred::Part(e, r) => {
                    let p = eval_closed(&subst(&arena.to_pexpr(*e)), &built.store, &built.fns, cfg.colors);
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
            retry: RetryPolicy { max_retries: 1, ..RetryPolicy::default() },
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
