//! App equivalence on the rank-sharded SPMD backend: all five benchmark
//! applications produce bit-identical stores at 1/2/4/8 ranks against the
//! sequential interpreter — fault-free and under seeded faults — with
//! distributed legality checking on — every access is asserted to stay
//! inside each rank's `owned ∪ ghosts` footprint.

use partir::apps::circuit::{Circuit, CircuitParams};
use partir::apps::miniaero::{MiniAero, MiniAeroParams};
use partir::apps::pennant::{Pennant, PennantParams};
use partir::apps::spmv::{Spmv, SpmvParams};
use partir::apps::stencil::{Stencil, StencilParams};
use partir::prelude::*;

/// Runs `program` sequentially and, at every rank count in `rank_counts`,
/// on the rank backend as `configure` sets it up, asserting every F64
/// field matches bit-for-bit and the plan was proved legal.
fn assert_dist_matches_seq(
    name: &str,
    program: &[Loop],
    fns: &FnTable,
    store: &Store,
    rank_counts: &[usize],
    configure: impl Fn(Run) -> Run,
) {
    let mut seq = store.clone();
    run_program_seq(program, &mut seq, fns);
    let schema = store.schema().clone();

    for &ranks in rank_counts {
        let plan = Partir::new(program.to_vec(), fns.clone(), schema.clone())
            .colors(ranks.max(4))
            .solve()
            .unwrap_or_else(|e| panic!("{name} auto-parallelizes: {e}"));
        let mut par = store.clone();
        let outcome = configure(Run::new().backend(Backend::Ranks(ranks)).check_legality(true))
            .run(&plan, &mut par)
            .unwrap_or_else(|e| panic!("{name} on {ranks} ranks: {e}"));
        let rep = outcome.report.as_ranks().expect("rank backend report");
        // `check_legality(true)` means the mode default: per-element checks
        // in debug builds, the once-per-plan containment proof in release.
        if cfg!(debug_assertions) {
            assert!(rep.legality_checks > 0, "{name}: per-element legality checking was off");
        } else {
            assert_eq!(rep.legality_checks, 0, "{name}: release path ran per-element checks");
        }
        assert!(rep.plan_proved > 0, "{name}: plan-level legality proof established no facts");

        for f in 0..schema.num_fields() {
            let fid = partir::dpl::region::FieldId(f as u32);
            if let partir::dpl::region::FieldData::F64(sv) = seq.field_data(fid) {
                let partir::dpl::region::FieldData::F64(pv) = par.field_data(fid) else {
                    unreachable!()
                };
                assert_eq!(sv, pv, "{name}: field {fid:?} diverged at {ranks} ranks");
            }
        }
    }
}

type App = (&'static str, Vec<Loop>, FnTable, Store);

fn spmv() -> App {
    let a = Spmv::generate(&SpmvParams { rows: 2_000, halo: 2, ..SpmvParams::default() });
    ("SpMV", a.program, a.fns, a.store)
}

fn stencil() -> App {
    let a = Stencil::generate(&StencilParams { nx: 64, ny: 48 });
    ("Stencil", a.program, a.fns, a.store)
}

fn circuit() -> App {
    let a = Circuit::generate(&CircuitParams {
        clusters: 4,
        nodes_per_cluster: 200,
        wires_per_cluster: 800,
        cross_fraction: 0.2,
        cross_stride: None,
        seed: 7,
    });
    ("Circuit", a.program, a.fns, a.store)
}

fn miniaero() -> App {
    let a = MiniAero::generate(&MiniAeroParams { nx: 6, ny: 6, nz: 6 });
    ("MiniAero", a.program, a.fns, a.store)
}

fn pennant() -> App {
    let a = Pennant::generate(&PennantParams { pieces: 4, zw: 6, zy: 6 });
    ("PENNANT", a.program, a.fns, a.store)
}

fn matches_on_all_rank_counts((name, program, fns, store): App) {
    assert_dist_matches_seq(name, &program, &fns, &store, &[1, 2, 4, 8], |run| run);
}

#[test]
fn spmv_matches_on_all_rank_counts() {
    matches_on_all_rank_counts(spmv());
}

#[test]
fn stencil_matches_on_all_rank_counts() {
    matches_on_all_rank_counts(stencil());
}

#[test]
fn circuit_matches_on_all_rank_counts() {
    matches_on_all_rank_counts(circuit());
}

#[test]
fn miniaero_matches_on_all_rank_counts() {
    matches_on_all_rank_counts(miniaero());
}

#[test]
fn pennant_matches_on_all_rank_counts() {
    matches_on_all_rank_counts(pennant());
}

/// One fixed seed per fault family — message loss (bounded retransmit),
/// message duplication (receiver-side dedup), and a whole-rank crash with
/// mild loss and duplication on top (checkpoint restore + survivor-side
/// shard migration) — on all five apps at 2 and 4 ranks, checkpointing
/// every epoch: stores stay bit-identical and the plan the run ends on
/// (the evacuated one, after a crash) is proved legal. The crash is at
/// epoch 1, or at epoch 0 in a one-loop program (SpMV).
#[test]
fn all_apps_match_under_loss_duplication_and_crash() {
    let quiet = FaultPlan::quiescent;
    for (name, program, fns, store) in [spmv(), stencil(), circuit(), miniaero(), pennant()] {
        let epoch = 1.min(program.len() as u64 - 1);
        let scenarios = [
            ("loss", FaultPlan { drop_rate: 0.3, ..quiet(1) }),
            ("duplication", FaultPlan { dup_rate: 0.5, ..quiet(7) }),
            (
                "crash",
                FaultPlan {
                    drop_rate: 0.05,
                    dup_rate: 0.05,
                    crash: Some(RankCrash { rank: 1, epoch, silent: false }),
                    ..quiet(42)
                },
            ),
        ];
        for (scenario, fault) in scenarios {
            let label = format!("{name} under {scenario}");
            assert_dist_matches_seq(&label, &program, &fns, &store, &[2, 4], |run| {
                run.fault(fault).checkpoint(CheckpointPolicy::every(1))
            });
        }
    }
}
