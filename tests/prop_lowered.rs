//! The lowered, chunk-at-a-time executor against the tree-walking
//! interpreter, differentially: the two share no evaluation code, so
//! bit-identical stores on generated programs is the evidence that
//! running each op over a whole chunk of iterations computes what running
//! each iteration through the whole body does.
//!
//! The shapes aim at the executor's seams: iteration subregions of 0, 1,
//! `CHUNK − 1`, `CHUNK` and `CHUNK + 1` elements and multi-run ones,
//! `ForEach` rows that are empty or span inner chunks, a field with two
//! uncentered reduction sites whose inexact sums show any reordering,
//! guarded loops over aliased iteration partitions (write skips), and a
//! fault schedule that kills attempts in the middle of a chunk. Every
//! shape runs on `Threads(n)` and `Ranks(n)`, with per-element legality
//! checks (the lane-by-lane path) and without (the whole-run copies).
//! CI runs this suite in release as well, where the lane loops are
//! vectorized.

use partir::core::pipeline::PlannedReduce;
use partir::prelude::*;
use partir::runtime::dist::LegalityMode;
use partir::runtime::task::CHUNK;
use proptest::prelude::*;
use std::collections::BTreeSet;

mod common;
use common::{assert_f64_fields_eq, build, Built, Cfg, OPTIONAL_LOOPS};
#[path = "../crates/runtime/tests/shapes/mod.rs"]
mod shapes;

/// A configuration asking for both optional loops; the generator grants
/// them unless the flags have the second loop and the pointer chain
/// together.
fn cfg(n_a: u64, n_b: u64, colors: usize, flags: u8, seed: u64) -> Cfg {
    Cfg {
        n_a,
        n_b,
        colors,
        read_ptr_chain: flags & 1 != 0,
        read_affine: flags & 2 != 0,
        reduce_via_ptr: flags & 4 != 0,
        reduce_via_affine: flags & 8 != 0,
        second_loop: flags & 16 != 0,
        ptr_seed: seed | OPTIONAL_LOOPS,
    }
}

/// Solves `built`'s program and runs it on both backends at `width`, in
/// both legality modes, asserting bit-identity to the interpreter. Returns
/// the plan and the run's write skips.
fn check(cfg: &Cfg, built: &Built, width: usize) -> Result<(Plan, u64), TestCaseError> {
    let mut seq = built.store.clone();
    run_program_seq(&built.program, &mut seq, &built.fns);
    let plan = Partir::new(built.program.clone(), built.fns.clone(), built.store.schema().clone())
        .colors(cfg.colors.max(width))
        .solve()
        .expect("generated programs are parallelizable");
    // The inexact fields only feed reductions applied in place (see the
    // generator): a buffered site there would make the comparison below
    // fail for a reason that has nothing to do with the executor.
    if let Some(twin) = built.program.iter().position(|lp| lp.name == "loop_twin") {
        let accesses = &plan.parallel_plan().loops[twin].accesses;
        let in_place =
            |r: &PlannedReduce| matches!(r, PlannedReduce::Guarded | PlannedReduce::Direct);
        prop_assert!(
            accesses.iter().filter_map(|a| a.reduce.as_ref()).all(in_place),
            "the twin loop's reductions must apply in place: {:?}",
            accesses
        );
    }
    let mut write_skips = 0;
    for (backend, run) in [
        ("threads", Run::new().backend(Backend::Threads(width))),
        ("ranks", Run::new().backend(Backend::Ranks(width))),
    ] {
        for mode in [LegalityMode::Element, LegalityMode::Off] {
            let mut par = built.store.clone();
            let report = run
                .clone()
                .legality_mode(mode)
                .run(&plan, &mut par)
                .map_err(|e| TestCaseError::fail(format!("{backend} {mode:?} failed: {e}")))?
                .report;
            assert_f64_fields_eq(&seq, &par, &format!("{backend} {mode:?} (cfg {cfg:?})"))?;
            write_skips += report.as_threads().map_or(0, |r| r.write_skips);
        }
    }
    Ok((plan, write_skips))
}

/// Region sizes that put subregion ends on, just before and just after a
/// chunk end, for one and for several colors.
fn sizes() -> Vec<u64> {
    let c = CHUNK as u64;
    vec![1, c - 1, c, c + 1, 2 * c, 3 * c + 7]
}

#[test]
fn every_chunk_boundary_shape_matches_the_interpreter() {
    let c = CHUNK as u64;
    let mut iter_lens = BTreeSet::new();
    let mut multi_run = false;
    let mut write_skips = 0;
    for (k, &n) in sizes().iter().enumerate() {
        for colors in [1, 3] {
            // Every reduction of loop_a — two uncentered ones relax it
            // into guards over an aliased iteration partition — with the
            // second loop, then with the uncentered reads.
            for flags in [0b11100, 0b01111] {
                let cfg = cfg(n, (n / 2).max(1), colors, flags, 40 + k as u64);
                let mut built = build(&cfg);
                // An empty row, a row of exactly one chunk, one spanning
                // chunks, whatever the seed drew.
                let schema = built.store.schema();
                let rows = schema.field_by_name(schema.region_by_name("R").unwrap(), "rows");
                let rows = rows.expect("the generator declares R.rows");
                for (row, r) in built.store.ranges_mut(rows).iter_mut().zip([
                    (0, 0),
                    (0, c.min(n)),
                    (n.saturating_sub(2 * c + 3), n),
                ]) {
                    *row = r;
                }
                let width = colors.min(2);
                let (plan, skips) = check(&cfg, &built, width).expect("backends agree");
                write_skips += skips;
                let parts = plan.evaluate(&built.store);
                for lp in &plan.parallel_plan().loops {
                    for sub in parts[lp.iter.0 as usize].iter() {
                        iter_lens.insert(sub.len());
                        multi_run |= sub.run_count() > 1;
                    }
                }
            }
        }
    }
    for want in [0, 1, c - 1, c, c + 1] {
        assert!(iter_lens.contains(&want), "no iteration subregion of {want}: {iter_lens:?}");
    }
    assert!(iter_lens.iter().any(|&l| l > 2 * c), "no subregion of several chunks");
    assert!(multi_run, "no multi-run iteration subregion");
    assert!(write_skips > 0, "no aliased iteration partition skipped a write");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_shapes_match_the_interpreter(
        size in 0usize..6,
        n_b in 1u64..(3 * CHUNK as u64),
        jitter in 0u64..5,
        colors in 1usize..6,
        flags in 0u8..32,
        seed in any::<u64>(),
        width in 1usize..4,
    ) {
        let cfg = cfg(sizes()[size] + jitter, n_b, colors, flags, seed);
        check(&cfg, &build(&cfg), width)?;
    }
}

/// Attempts die after `survive_iters` iterations. With subregions of
/// several chunks almost every kill lands inside a chunk: the executor
/// then ran every op over the chunk's first lanes only, the rollback
/// restores what they wrote, and the retry — or the sequential recovery —
/// still ends bit-identical to the interpreter.
#[test]
fn a_kill_in_the_middle_of_a_chunk_rolls_back_and_retries_bit_identically() {
    let cfg = cfg(3 * CHUNK as u64 + 7, CHUNK as u64 + 9, 3, 0b01111, 7);
    let built = build(&cfg);
    let mut seq = built.store.clone();
    run_program_seq(&built.program, &mut seq, &built.fns);
    let plan = Partir::new(built.program.clone(), built.fns.clone(), built.store.schema().clone())
        .colors(cfg.colors)
        .solve()
        .unwrap();

    let parts = plan.evaluate(&built.store);
    for fault in [
        FaultPlan { task_failure_rate: 0.7, ..FaultPlan::quiescent(3) },
        FaultPlan { task_failure_rate: 0.7, poison_after: Some(2), ..FaultPlan::quiescent(9) },
        // Every attempt dies: all tasks end on the sequential recovery.
        FaultPlan { task_failure_rate: 1.0, ..FaultPlan::quiescent(5) },
    ] {
        // What the plan will decide for first attempts, from its own
        // decision function: at least one kill strictly inside a chunk.
        let mut ordinal = 0;
        let mut mid_chunk = 0;
        for (li, lp) in plan.parallel_plan().loops.iter().enumerate() {
            for (color, sub) in parts[lp.iter.0 as usize].iter().enumerate() {
                let hit = fault.decide(li as u64, color as u64, 0, ordinal, sub.len());
                mid_chunk += hit.is_some_and(|f| f.survive_iters % CHUNK as u64 != 0) as u32;
                ordinal += 1;
            }
        }
        assert!(mid_chunk > 0, "seed {} never kills inside a chunk", fault.seed);

        for backend in [Backend::Threads(2), Backend::Ranks(2)] {
            let run = |label: &str| {
                let mut par = built.store.clone();
                let report = Run::new()
                    .backend(backend)
                    .fault(fault)
                    .run(&plan, &mut par)
                    .unwrap_or_else(|e| panic!("{backend:?} {label} run failed: {e}"))
                    .report;
                assert_f64_fields_eq(&seq, &par, label).unwrap();
                // Every count; timings are the only fields a replay may
                // not reproduce.
                let mut r = *report.stats();
                (r.pack_ns, r.exchange_wait_ns, r.unpack_ns, r.compute_ns, r.merge_ns) =
                    (0, 0, 0, 0, 0);
                r
            };
            let (first, replay) = (run("faulted"), run("replayed"));
            assert!(first.faults_injected > 0 && first.task_retries > 0, "{first:?}");
            assert_eq!(first.to_json().to_string(), replay.to_json().to_string());
        }
    }
}

/// `ForEach` headers over single-valued functions read no field; the rank
/// backend's exchange derivation and legality proof must give them no
/// footprint instead of looking one up.
#[test]
fn for_each_headers_no_field_backs_run_on_ranks() {
    let (lp, fns, store) = shapes::nested_for_each(true);
    let mut seq = store.clone();
    run_program_seq(std::slice::from_ref(&lp), &mut seq, &fns);
    let plan = Partir::new(vec![lp], fns, store.schema().clone()).colors(3).solve().unwrap();
    let mut par = store.clone();
    Run::new().backend(Backend::Ranks(2)).run(&plan, &mut par).expect("ranks run");
    assert_f64_fields_eq(&seq, &par, "ranks").unwrap();
}
