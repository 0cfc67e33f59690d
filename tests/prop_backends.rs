//! Cross-backend equivalence, empirically: for randomly generated
//! parallelizable programs, one solved `Plan` produces bit-identical
//! stores on the sequential interpreter, the threaded executor, and the
//! rank-sharded SPMD backend — with dynamic legality checking on
//! everywhere. Both backends run the same plan through the same compute
//! core, so they must also agree on what that core counted: tasks, guard
//! hits and skips, skipped non-owner writes. The rank side runs with strict
//! volume accounting, which pins on generated programs what the volume
//! prediction assumes: every routed buffer slice is allocated and sent.

use partir::core::pipeline::{Options, PlannedReduce};
use partir::prelude::*;
use partir::runtime::dist::LegalityMode;
use proptest::prelude::*;

mod common;
use common::{arb_cfg_with_optional_loops, assert_f64_fields_eq, build, Cfg};

/// Solves `cfg`'s program once and runs the plan on `Threads(width)` and
/// `Ranks(width)`; returns the plan and both reports.
fn run_on_both(
    cfg: &Cfg,
    options: Options,
    width: usize,
) -> Result<(Plan, ExecReport, DistReport), TestCaseError> {
    let built = build(cfg);
    let mut seq = built.store.clone();
    run_program_seq(&built.program, &mut seq, &built.fns);

    // The rank backend needs at least one color per rank.
    let plan = Partir::new(built.program, built.fns, built.store.schema().clone())
        .colors(cfg.colors.max(width))
        .options(options)
        .solve()
        .expect("generated programs are parallelizable");
    let strict = ObsConfig { strict_volume: true, ..ObsConfig::disabled() };
    let runs = [
        Run::new().backend(Backend::Threads(width)),
        Run::new().backend(Backend::Ranks(width)).obs(strict),
    ];
    let mut reports = Vec::new();
    for (run, backend) in runs.into_iter().zip(["threads", "ranks"]) {
        let mut par = built.store.clone();
        let outcome = run
            .legality_mode(LegalityMode::Element)
            .run(&plan, &mut par)
            .map_err(|e| TestCaseError::fail(format!("{backend} failed: {e}")))?;
        assert_f64_fields_eq(&seq, &par, &format!("{backend} (cfg {cfg:?})"))?;
        reports.push(outcome.report);
    }
    let (threads, ranks) = (*reports[0].as_threads().unwrap(), *reports[1].as_ranks().unwrap());
    let counted = |tasks, hits, skips, writes| (tasks, hits, skips, writes);
    prop_assert_eq!(
        counted(threads.tasks_run, threads.guard_hits, threads.guard_skips, threads.write_skips),
        counted(ranks.tasks_run, ranks.guard_hits, ranks.guard_skips, ranks.write_skips),
        "(tasks, guard hits, guard skips, write skips) differ on cfg {:?}",
        cfg
    );
    Ok((plan, threads, ranks))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_backends_agree(cfg in arb_cfg_with_optional_loops(), width in 1usize..5) {
        run_on_both(&cfg, Options::default(), width)?;
    }
}

/// The generator inputs that reach every branch of the compute core: one
/// reduction through an affine map gets a private sub-partition (or, with
/// those switched off, a plain buffer), and two reductions relax the loop
/// into guards over an aliased iteration partition, where centered writes
/// apply in the first owner only.
#[test]
fn every_reduction_mode_counts_the_same_on_both_backends() {
    let cfg = |reduce_via_ptr| Cfg {
        n_a: 90,
        n_b: 40,
        colors: 6,
        read_ptr_chain: true,
        read_affine: false,
        reduce_via_ptr,
        reduce_via_affine: true,
        second_loop: true,
        ptr_seed: 11,
    };
    let no_private = Options { private_subs: false, ..Options::default() };
    let mut seen = Vec::new();
    for (cfg, options) in [
        (cfg(false), Options::default()),
        (cfg(false), no_private),
        (cfg(true), Options::default()),
    ] {
        let (plan, threads, ranks) = run_on_both(&cfg, options, 3).expect("backends agree");
        let modes = plan.parallel_plan().loops.iter().flat_map(|l| &l.accesses);
        seen.extend(modes.filter_map(|a| a.reduce.clone()));
        if cfg.reduce_via_ptr {
            assert!(threads.guard_hits > 0 && threads.guard_skips > 0, "guards ran: {threads:?}");
            assert!(ranks.write_skips > 0, "the aliased iteration skipped no write: {ranks:?}");
        }
    }
    assert!(matches!(seen[0], PlannedReduce::BufferedPrivate { .. }), "{seen:?}");
    assert_eq!(
        seen[1..],
        [PlannedReduce::Buffered, PlannedReduce::Guarded, PlannedReduce::Guarded]
    );
}
