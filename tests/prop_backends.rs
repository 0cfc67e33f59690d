//! Cross-backend equivalence, empirically: for randomly generated
//! parallelizable programs, one solved `Plan` produces bit-identical
//! stores on the sequential interpreter and on every `(backend, width)` —
//! in place on threads or sharded on ranks — with dynamic legality
//! checking and strict volume accounting on everywhere. Every run is the
//! same driver over the same compute core, so it must also count what one
//! worker in place counts: tasks, guard hits and skips, skipped non-owner
//! writes. Strict volume pins on generated programs what the volume
//! prediction assumes: every routed buffer slice is allocated and sent.

use partir::core::pipeline::{Options, PlannedReduce};
use partir::prelude::*;
use partir::runtime::dist::LegalityMode;
use proptest::prelude::*;

mod common;
use common::{arb_cfg_with_optional_loops, assert_f64_fields_eq, build, Cfg};

/// A backend at width 1 to 4.
fn arb_backend() -> impl Strategy<Value = Backend> {
    let backend = |(ranks, w)| if ranks { Backend::Ranks(w) } else { Backend::Threads(w) };
    (any::<bool>(), 1usize..5).prop_map(backend)
}

/// Solves `cfg`'s program once and runs the plan on `backend` and on the
/// reference, one thread in place; returns the plan and the report.
fn run_against_reference(
    cfg: &Cfg,
    options: Options,
    backend: Backend,
) -> Result<(Plan, DistReport), TestCaseError> {
    let built = build(cfg);
    let mut seq = built.store.clone();
    run_program_seq(&built.program, &mut seq, &built.fns);

    // The rank backend needs at least one color per rank.
    let (Backend::Threads(width) | Backend::Ranks(width)) = backend;
    let plan = Partir::new(built.program, built.fns, built.store.schema().clone())
        .colors(cfg.colors.max(width))
        .options(options)
        .solve()
        .expect("generated programs are parallelizable");
    let strict = ObsConfig { strict_volume: true, ..ObsConfig::disabled() };
    let mut reports = Vec::new();
    for backend in [Backend::Threads(1), backend] {
        let mut par = built.store.clone();
        let outcome = Run::new()
            .backend(backend)
            .obs(strict)
            .legality_mode(LegalityMode::Element)
            .run(&plan, &mut par)
            .map_err(|e| TestCaseError::fail(format!("{backend:?} failed: {e}")))?;
        assert_f64_fields_eq(&seq, &par, &format!("{backend:?} (cfg {cfg:?})"))?;
        reports.push(*outcome.report.stats());
    }
    let counted = |r: &DistReport| (r.tasks_run, r.guard_hits, r.guard_skips, r.write_skips);
    prop_assert_eq!(
        counted(&reports[0]),
        counted(&reports[1]),
        "(tasks, guard hits, guard skips, write skips) differ on {:?}, cfg {:?}",
        backend,
        cfg
    );
    Ok((plan, reports[1]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_backends_agree(cfg in arb_cfg_with_optional_loops(), backend in arb_backend()) {
        run_against_reference(&cfg, Options::default(), backend)?;
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
        for backend in [Backend::Threads(3), Backend::Ranks(3)] {
            let run = run_against_reference(&cfg, options, backend);
            let (plan, report) = run.expect("backends agree");
            if cfg.reduce_via_ptr {
                assert!(report.guard_hits > 0 && report.guard_skips > 0, "guards: {report:?}");
                assert!(report.write_skips > 0, "the aliased iteration skipped no write");
            }
            if backend == Backend::Ranks(3) {
                let modes = plan.parallel_plan().loops.iter().flat_map(|l| &l.accesses);
                seen.extend(modes.filter_map(|a| a.reduce.clone()));
            }
        }
    }
    assert!(matches!(seen[0], PlannedReduce::BufferedPrivate { .. }), "{seen:?}");
    assert_eq!(
        seen[1..],
        [PlannedReduce::Buffered, PlannedReduce::Guarded, PlannedReduce::Guarded]
    );
}
