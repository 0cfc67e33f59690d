//! Determinism of the async double-buffered ghost exchange, empirically:
//! for randomly generated parallelizable programs, the rank backend's
//! interior/halo split with arrival-order halo installs produces stores
//! bit-identical to the sequential interpreter — under an adversarially
//! shuffled delivery schedule.
//!
//! A fault plan with `chaos` set drives, from its seed, a deterministic
//! xorshift* stream inside each rank's mailbox that (a) picks among equally-ready stashed messages at
//! random and (b) injects microsecond-scale receive delays, so ghost
//! messages land in orders the happy path never produces and boundary
//! colors run in dependency order, not rank order. Any hidden ordering
//! assumption in the exchange protocol (halo install order, write-back
//! install order, partial-merge order) shows up as a field mismatch.

use partir::prelude::*;
use proptest::prelude::*;

mod common;
use common::{arb_cfg, assert_f64_fields_eq, build};

/// Random fault schedule for the chaos matrix: seeded drops and
/// duplication, plus an optional loud rank crash. Crash coordinates are
/// sampled wide and clamped to the run's rank/epoch space at use.
fn arb_fault() -> impl Strategy<Value = (u64, f64, f64, Option<(usize, u64)>)> {
    (any::<u64>(), 0u32..35, 0u32..35, any::<bool>(), 0usize..5, 0u64..2).prop_map(
        |(seed, drop_pct, dup_pct, crash_on, crank, cepoch)| {
            (
                seed,
                drop_pct as f64 / 100.0,
                dup_pct as f64 / 100.0,
                crash_on.then_some((crank, cepoch)),
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn async_exchange_is_bit_identical_under_delivery_chaos(
        cfg in arb_cfg(),
        ranks in 2usize..6,
        seed in any::<u64>(),
    ) {
        let built = build(&cfg);
        let mut seq = built.store.clone();
        run_program_seq(&built.program, &mut seq, &built.fns);

        let plan = Partir::new(
            built.program.clone(),
            built.fns.clone(),
            built.store.schema().clone(),
        )
        .colors(ranks.max(cfg.colors))
        .solve()
        .map_err(|e| TestCaseError::fail(format!("auto-parallelizes: {e}")))?;

        let mut par = built.store.clone();
        Run::new()
            .backend(Backend::Ranks(ranks))
            .check_legality(true)
            .fault(FaultPlan { chaos: true, ..FaultPlan::quiescent(seed) })
            .run(&plan, &mut par)
            .map_err(|e| TestCaseError::fail(format!("{ranks} ranks, chaos {seed:#x}: {e}")))?;
        assert_f64_fields_eq(&seq, &par, &format!("{ranks} ranks, chaos {seed:#x}"))?;
    }

    /// The fault matrix: on top of delivery chaos from the same seed,
    /// seeded message drops (bounded retransmit), seeded duplication
    /// (receiver dedup), and an optional whole-rank crash (checkpoint
    /// restore + shard evacuation) must all leave the store bit-identical
    /// to the sequential interpreter, with strict volume accounting
    /// holding throughout.
    #[test]
    fn faults_and_recovery_preserve_bit_identity(
        cfg in arb_cfg(),
        ranks in 2usize..6,
        (fault_seed, drop_rate, dup_rate, crash) in arb_fault(),
        ckpt_interval in 1u64..3,
    ) {
        let built = build(&cfg);
        let mut seq = built.store.clone();
        run_program_seq(&built.program, &mut seq, &built.fns);

        let crash = crash.map(|(r, e)| RankCrash {
            rank: r % ranks,
            epoch: e.min(built.program.len() as u64 - 1),
            silent: false,
        });
        let plan = Partir::new(
            built.program.clone(),
            built.fns.clone(),
            built.store.schema().clone(),
        )
        .colors(ranks.max(cfg.colors))
        .solve()
        .map_err(|e| TestCaseError::fail(format!("auto-parallelizes: {e}")))?;
        let run = Run::new()
            .backend(Backend::Ranks(ranks))
            .check_legality(true)
            .obs(ObsConfig { strict_volume: true, ..ObsConfig::disabled() })
            .fault(FaultPlan {
                drop_rate,
                dup_rate,
                chaos: true,
                crash,
                ..FaultPlan::quiescent(fault_seed)
            })
            .checkpoint(CheckpointPolicy::every(ckpt_interval));

        let mut par = built.store.clone();
        let label = format!(
            "{ranks} ranks, fault {fault_seed:#x} drop {drop_rate:.2} dup {dup_rate:.2} crash {crash:?}"
        );
        let outcome = run
            .run(&plan, &mut par)
            .map_err(|e| TestCaseError::fail(format!("{label}: {e}")))?;
        let rep = outcome.report.as_ranks().expect("rank report");
        if crash.is_some() {
            prop_assert_eq!(rep.recoveries, 1, "{}: crash must trigger one recovery", label);
            prop_assert!(rep.plan_proved > 0, "{}: evacuated plan not re-proved", label);
        }
        assert_f64_fields_eq(&seq, &par, &label)?;
    }
}
