//! Fault tolerance of the rank-sharded SPMD backend, end to end: a seeded
//! whole-rank crash at a chosen epoch on each of the five benchmark
//! applications completes on the survivors bit-identical to the
//! sequential interpreter, with
//!
//! - **minimal migration** — the bytes the survivors adopt never exceed
//!   the lost rank's owned-shard size (nothing a survivor already owned
//!   ever moves),
//! - **a re-proved plan** — the evacuated exchange plan passes the
//!   plan-level legality proof (`plan_proved > 0`, and zero per-element
//!   checks in release builds),
//! - **clean volume accounting** — strict predicted-vs-measured byte
//!   matching holds across the recovery (`dist.volume_mismatch` never
//!   fires), because dropped attempts never cross the channel and
//!   duplicates/crash notices are metered out-of-plan.
//!
//! Transient faults (seeded message drops and duplication) are covered by
//! dedicated storms here and by the property matrix in
//! `prop_async_exchange.rs`.

use partir::apps::circuit::{Circuit, CircuitParams};
use partir::apps::miniaero::{MiniAero, MiniAeroParams};
use partir::apps::pennant::{Pennant, PennantParams};
use partir::apps::spmv::{Spmv, SpmvParams};
use partir::apps::stencil::{Stencil, StencilParams};
use partir::core::exchange::derive_exchange;
use partir::prelude::*;

/// A rank-backend run with legality checking on and strict volume
/// accounting.
fn strict_ranks(ranks: usize) -> Run {
    Run::new()
        .backend(Backend::Ranks(ranks))
        .check_legality(true)
        .obs(ObsConfig { strict_volume: true, ..ObsConfig::disabled() })
}

/// Crashes `crash_rank` mid-program and asserts the survivors finish the
/// run bit-identical to the sequential interpreter, with migration bounded
/// by the dead rank's owned-shard size.
fn assert_crash_recovers(
    name: &str,
    program: Vec<Loop>,
    fns: FnTable,
    store: Store,
    ranks: usize,
    crash_rank: usize,
    silent: bool,
) -> DistReport {
    let mut seq = store.clone();
    run_program_seq(&program, &mut seq, &fns);
    let schema = store.schema().clone();
    let crash_epoch = (program.len() as u64) / 2;

    let plan = Partir::new(program.clone(), fns, schema.clone())
        .colors(ranks.max(4))
        .solve()
        .unwrap_or_else(|e| panic!("{name} auto-parallelizes: {e}"));
    let run = strict_ranks(ranks)
        .fault(FaultPlan {
            crash: Some(RankCrash { rank: crash_rank, epoch: crash_epoch, silent }),
            ..FaultPlan::quiescent(0xFA17)
        })
        .checkpoint(CheckpointPolicy::every(1));

    // The dead rank's owned-shard size under the original block owner
    // mapping bounds what recovery is allowed to migrate.
    let mut par = store.clone();
    let parts = plan.evaluate(&par);
    let xplan = derive_exchange(plan.parallel_plan(), &parts, &schema, ranks).unwrap();
    let dead_owned = xplan.owned_field_bytes(&schema, crash_rank);

    let outcome = run
        .run(&plan, &mut par)
        .unwrap_or_else(|e| panic!("{name} at {ranks} ranks survives a crash: {e}"));
    let rep = *outcome.report.as_ranks().expect("rank backend report");

    assert_eq!(rep.recoveries, 1, "{name}: exactly one recovery");
    assert!(
        rep.bytes_migrated <= dead_owned,
        "{name}: migrated {} bytes but the lost rank owned only {dead_owned}",
        rep.bytes_migrated
    );
    assert!(rep.plan_proved > 0, "{name}: the evacuated plan was not re-proved");
    if !cfg!(debug_assertions) {
        assert_eq!(rep.legality_checks, 0, "{name}: release path ran per-element checks");
    }
    if crash_epoch > 0 {
        assert!(rep.checkpoints > 0, "{name}: no checkpoint to roll back to");
    }

    for f in 0..schema.num_fields() {
        let fid = partir::dpl::region::FieldId(f as u32);
        if let partir::dpl::region::FieldData::F64(sv) = seq.field_data(fid) {
            let partir::dpl::region::FieldData::F64(pv) = par.field_data(fid) else {
                unreachable!()
            };
            assert_eq!(sv, pv, "{name}: field {fid:?} diverged after recovery at {ranks} ranks");
        }
    }
    rep
}

#[test]
fn spmv_survives_a_rank_crash_at_4_and_8_ranks() {
    for ranks in [4usize, 8] {
        let a = Spmv::generate(&SpmvParams { rows: 2_000, halo: 2, ..SpmvParams::default() });
        assert_crash_recovers("SpMV", a.program, a.fns, a.store, ranks, ranks / 2, false);
    }
}

#[test]
fn stencil_survives_a_rank_crash_at_4_and_8_ranks() {
    for ranks in [4usize, 8] {
        let a = Stencil::generate(&StencilParams { nx: 64, ny: 48 });
        assert_crash_recovers("Stencil", a.program, a.fns, a.store, ranks, 0, false);
    }
}

#[test]
fn circuit_survives_a_rank_crash_at_4_and_8_ranks() {
    for ranks in [4usize, 8] {
        let a = Circuit::generate(&CircuitParams {
            clusters: 4,
            nodes_per_cluster: 200,
            wires_per_cluster: 800,
            cross_fraction: 0.2,
            cross_stride: None,
            seed: 7,
        });
        assert_crash_recovers("Circuit", a.program, a.fns, a.store, ranks, ranks - 1, false);
    }
}

#[test]
fn miniaero_survives_a_rank_crash_at_4_and_8_ranks() {
    for ranks in [4usize, 8] {
        let a = MiniAero::generate(&MiniAeroParams { nx: 6, ny: 6, nz: 6 });
        assert_crash_recovers("MiniAero", a.program, a.fns, a.store, ranks, 1, false);
    }
}

#[test]
fn pennant_survives_a_rank_crash_at_4_and_8_ranks() {
    for ranks in [4usize, 8] {
        let a = Pennant::generate(&PennantParams { pieces: 4, zw: 6, zy: 6 });
        assert_crash_recovers("Pennant", a.program, a.fns, a.store, ranks, 2, false);
    }
}

/// A silent crash sends no notice; peers detect the loss only when their
/// epoch deadline expires. Slower (one deadline wait), same outcome.
#[test]
fn silent_crash_is_detected_by_deadline_and_recovered() {
    let a = Stencil::generate(&StencilParams { nx: 32, ny: 24 });
    let rep = assert_crash_recovers("Stencil/silent", a.program, a.fns, a.store, 4, 1, true);
    assert_eq!(rep.recoveries, 1);
}

/// A second loss evacuates onto live ranks only. Seed 0 crashes rank 1 at
/// epoch 1 and, under a 90% drop rate, makes one more destination exhaust
/// its retransmits: two recoveries in one run. Had the second evacuation
/// counted the rank lost first as a survivor (it has no load, so it wins
/// the least-loaded fallback), colors would land on a rank the next
/// attempt never spawns, and their owned elements would keep the restored
/// checkpoint's values.
#[test]
fn two_rank_losses_recover_bit_identical() {
    let a = Stencil::generate(&StencilParams { nx: 32, ny: 24 });
    let mut seq = a.store.clone();
    run_program_seq(&a.program, &mut seq, &a.fns);
    let schema = a.store.schema().clone();
    let epoch = a.program.len() as u64 / 2;

    let plan = Partir::new(a.program, a.fns, schema.clone()).colors(4).solve().unwrap();
    let mut par = a.store.clone();
    let outcome = strict_ranks(4)
        .fault(FaultPlan {
            drop_rate: 0.9,
            crash: Some(RankCrash { rank: 1, epoch, silent: false }),
            ..FaultPlan::quiescent(0)
        })
        .checkpoint(CheckpointPolicy::every(1))
        .run(&plan, &mut par)
        .expect("two losses leave two survivors to finish on");
    let rep = outcome.report.as_ranks().unwrap();
    assert_eq!(rep.recoveries, 2, "the seed loses exactly two ranks");
    for f in 0..schema.num_fields() {
        let fid = partir::dpl::region::FieldId(f as u32);
        assert_eq!(seq.field_data(fid), par.field_data(fid), "field {fid:?} diverged");
    }
}

/// A task fault and a rank crash in one plan: the task level recovers
/// within its rank, the crash is the one loss. Seed 110 at rate 0.05 kills
/// one attempt in Pennant's five loops (loop 0, color 2, attempt 0), four
/// epochs before the planned crash: the run records that loss alone, and
/// ends bit-identical. With no checkpoint the survivors replay from epoch
/// 0, so the final attempt's report counts the kill and its retry.
#[test]
fn a_task_fault_beside_a_crash_is_one_recovery() {
    let a = Pennant::generate(&PennantParams { pieces: 4, zw: 6, zy: 6 });
    let mut seq = a.store.clone();
    run_program_seq(&a.program, &mut seq, &a.fns);
    let schema = a.store.schema().clone();
    let last = a.program.len() as u64 - 1;

    let plan = Partir::new(a.program, a.fns, schema.clone()).colors(4).solve().unwrap();
    let mut par = a.store.clone();
    let outcome = strict_ranks(4)
        .fault(FaultPlan {
            task_failure_rate: 0.05,
            crash: Some(RankCrash { rank: 0, epoch: last, silent: false }),
            ..FaultPlan::quiescent(110)
        })
        .run(&plan, &mut par)
        .expect("a retrying rank is alive");
    let rep = outcome.report.as_ranks().unwrap();
    assert_eq!((rep.faults_injected, rep.task_retries), (1, 1), "the seed kills one attempt");
    assert_eq!(rep.recoveries, 1, "only the planned crash is a loss");
    for f in 0..schema.num_fields() {
        let fid = partir::dpl::region::FieldId(f as u32);
        assert_eq!(seq.field_data(fid), par.field_data(fid), "field {fid:?} diverged");
    }
}

/// Seeded drop storm: every dropped attempt forces a retransmit, the
/// delivered copy is the only one metered, and the
/// result stays bit-identical with strict volume accounting on.
#[test]
fn message_drop_storm_retransmits_and_stays_bit_identical() {
    let a = Spmv::generate(&SpmvParams { rows: 600, halo: 2, ..SpmvParams::default() });
    let mut seq = a.store.clone();
    run_program_seq(&a.program, &mut seq, &a.fns);
    let schema = a.store.schema().clone();

    let plan = Partir::new(a.program, a.fns, schema.clone()).colors(4).solve().unwrap();
    let mut par = a.store.clone();
    let outcome = strict_ranks(4)
        .fault(FaultPlan { drop_rate: 0.4, ..FaultPlan::quiescent(21) })
        .run(&plan, &mut par)
        .expect("retransmits absorb the drops");
    let rep = outcome.report.as_ranks().unwrap();
    assert!(rep.retransmits > 0, "a 40% drop rate must force retransmits");
    assert_eq!(rep.recoveries, 0, "transient loss is not a rank loss");
    for f in 0..schema.num_fields() {
        let fid = partir::dpl::region::FieldId(f as u32);
        assert_eq!(seq.field_data(fid), par.field_data(fid), "field {fid:?} diverged");
    }
}

/// Seeded duplication: receivers dedup by `(epoch, kind, src)`, duplicate
/// traffic lands in the out-of-plan meter, and strict accounting holds.
#[test]
fn message_duplication_is_deduped_and_metered_out_of_plan() {
    let a = Stencil::generate(&StencilParams { nx: 48, ny: 32 });
    let mut seq = a.store.clone();
    run_program_seq(&a.program, &mut seq, &a.fns);
    let schema = a.store.schema().clone();

    let plan = Partir::new(a.program, a.fns, schema.clone()).colors(4).solve().unwrap();
    let mut par = a.store.clone();
    let outcome = strict_ranks(4)
        .fault(FaultPlan { dup_rate: 0.5, ..FaultPlan::quiescent(33) })
        .run(&plan, &mut par)
        .expect("dedup keeps strict accounting clean");
    let rep = outcome.report.as_ranks().unwrap();
    assert!(rep.duplicates > 0, "a 50% dup rate must inject duplicates");
    let volume = outcome.volume.as_ref().expect("accounting present");
    assert!(volume.is_clean(), "duplicates leaked into the protocol meter");
    for f in 0..schema.num_fields() {
        let fid = partir::dpl::region::FieldId(f as u32);
        assert_eq!(seq.field_data(fid), par.field_data(fid), "field {fid:?} diverged");
    }
}

/// Fault-free checkpointing: the run takes one snapshot per rank per epoch
/// (interval 1), the snapshots' byte volume matches the owned-shard sizes
/// exactly, and the result is untouched — checkpointing must never change
/// what the run computes.
#[test]
fn fault_free_checkpointing_rounds_trip_and_sizes_add_up() {
    let a = Stencil::generate(&StencilParams { nx: 48, ny: 32 });
    let mut seq = a.store.clone();
    run_program_seq(&a.program, &mut seq, &a.fns);
    let schema = a.store.schema().clone();
    let n_loops = a.program.len() as u64;

    let plan = Partir::new(a.program, a.fns, schema.clone()).colors(4).solve().unwrap();
    let run = strict_ranks(4).checkpoint(CheckpointPolicy::every(1));
    let parts = plan.evaluate(&a.store);
    let xplan = derive_exchange(plan.parallel_plan(), &parts, &schema, 4).unwrap();
    let owned_total: u64 = (0..4).map(|r| xplan.owned_field_bytes(&schema, r)).sum();
    let mut par = a.store.clone();
    let outcome = run.run(&plan, &mut par).expect("fault-free run");
    let rep = outcome.report.as_ranks().unwrap();
    assert_eq!(rep.checkpoints, 4 * n_loops, "one snapshot per rank per epoch");
    assert_eq!(
        rep.checkpoint_bytes,
        owned_total * n_loops,
        "snapshots are exactly the owned shards, never ghosts"
    );
    assert_eq!(rep.recoveries, 0);
    for f in 0..schema.num_fields() {
        let fid = partir::dpl::region::FieldId(f as u32);
        assert_eq!(seq.field_data(fid), par.field_data(fid), "field {fid:?} diverged");
    }
}
