//! Placement independence: the owner mapping is a pure performance knob.
//!
//! Any *valid* `assignment[color] = rank` — block, cost-driven, or drawn at
//! random — must produce bit-identical stores against the sequential
//! interpreter, with strict volume accounting clean (measured cross-rank
//! bytes equal the plan's per-pass predictions exactly). Correctness comes
//! from the exchange set algebra, never from where colors happen to live;
//! placement may only change *how many* bytes move, not *what* the program
//! computes.
//!
//! The final test pins the performance half on the adversarial case: on a
//! band matrix shifted by `rows/2` the block mapping pairs each color with
//! a partner half the index space away, and the cost-driven solver must
//! strictly beat it on both predicted and measured bytes while remaining
//! bit-identical.

use partir::apps::circuit::{Circuit, CircuitParams};
use partir::apps::miniaero::{MiniAero, MiniAeroParams};
use partir::apps::pennant::{Pennant, PennantParams};
use partir::apps::spmv::{Spmv, SpmvParams};
use partir::apps::stencil::{Stencil, StencilParams};
use partir::core::placement::PlacementPolicy;
use partir::prelude::*;

/// Deterministic split-mix style generator so failures replay exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A uniformly random valid owner mapping. The first `n_ranks` colors get
/// a random permutation of the ranks so every rank owns at least one color
/// (exercising the all-ranks-active paths); the rest land anywhere.
fn random_assignment(rng: &mut Rng, n_colors: usize, n_ranks: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n_ranks).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    (0..n_colors)
        .map(|c| if c < n_ranks { perm[c] } else { (rng.next() % n_ranks as u64) as usize })
        .collect()
}

struct Case {
    name: &'static str,
    program: Vec<Loop>,
    fns: FnTable,
    store: Store,
}

fn apps() -> Vec<Case> {
    let case = |name, program, fns, store| Case { name, program, fns, store };
    let spmv = Spmv::generate(&SpmvParams { rows: 2_000, halo: 2, ..SpmvParams::default() });
    let stencil = Stencil::generate(&StencilParams { nx: 64, ny: 48 });
    let circuit = Circuit::generate(&CircuitParams {
        clusters: 4,
        nodes_per_cluster: 200,
        wires_per_cluster: 800,
        cross_fraction: 0.2,
        cross_stride: None,
        seed: 11,
    });
    let aero = MiniAero::generate(&MiniAeroParams { nx: 6, ny: 6, nz: 6 });
    let pennant = Pennant::generate(&PennantParams { pieces: 4, zw: 6, zy: 6 });
    vec![
        case("SpMV", spmv.program, spmv.fns, spmv.store),
        case("Stencil", stencil.program, stencil.fns, stencil.store),
        case("Circuit", circuit.program, circuit.fns, circuit.store),
        case("MiniAero", aero.program, aero.fns, aero.store),
        case("PENNANT", pennant.program, pennant.fns, pennant.store),
    ]
}

fn run_with_policy(
    case: &Case,
    seq: &Store,
    ranks: usize,
    colors: usize,
    policy: PlacementPolicy,
) -> DistReport {
    let name = case.name;
    let label = policy.name();
    let plan = Partir::new(case.program.clone(), case.fns.clone(), case.store.schema().clone())
        .colors(colors)
        .solve()
        .unwrap_or_else(|e| panic!("{name} ({label}) at {ranks} ranks: {e}"));
    let mut par = case.store.clone();
    let outcome = Run::new()
        .backend(Backend::Ranks(ranks))
        .placement(policy)
        .obs(ObsConfig { strict_volume: true, ..ObsConfig::disabled() })
        .run(&plan, &mut par)
        .unwrap_or_else(|e| panic!("{name} ({label}) run at {ranks} ranks: {e}"));
    let schema = case.store.schema();
    for f in 0..schema.num_fields() {
        let fid = partir::dpl::region::FieldId(f as u32);
        if let partir::dpl::region::FieldData::F64(sv) = seq.field_data(fid) {
            let partir::dpl::region::FieldData::F64(pv) = par.field_data(fid) else {
                unreachable!()
            };
            assert_eq!(sv, pv, "{name} ({label}): field {fid:?} diverged at {ranks} ranks");
        }
    }
    // Strict accounting aborts the run on any predicted-vs-measured
    // mismatch; it must also read clean afterwards.
    let volume = outcome.volume.expect("strict volume accounting present");
    assert!(volume.is_clean(), "{name} ({label}): dirty volume accounting at {ranks} ranks");
    match outcome.report {
        RunReport::Ranks(r) => r,
        RunReport::Threads(_) => unreachable!("rank backend requested"),
    }
}

#[test]
fn random_placements_stay_bit_identical_on_all_apps() {
    let mut rng = Rng(0x5eed_1234_abcd_0001);
    for case in apps() {
        let mut seq = case.store.clone();
        run_program_seq(&case.program, &mut seq, &case.fns);
        for ranks in [2usize, 4, 8] {
            let colors = 2 * ranks;
            for _trial in 0..2 {
                let owner = random_assignment(&mut rng, colors, ranks);
                run_with_policy(&case, &seq, ranks, colors, PlacementPolicy::Explicit(owner));
            }
        }
    }
}

#[test]
fn block_and_cost_policies_stay_bit_identical_on_all_apps() {
    for case in apps() {
        let mut seq = case.store.clone();
        run_program_seq(&case.program, &mut seq, &case.fns);
        for ranks in [2usize, 4, 8] {
            let colors = 2 * ranks;
            run_with_policy(&case, &seq, ranks, colors, PlacementPolicy::Block);
            run_with_policy(&case, &seq, ranks, colors, PlacementPolicy::CostDriven);
        }
    }
}

#[test]
fn cost_driven_beats_block_on_the_shifted_band() {
    // Row `i` reads columns centered at `i + rows/2`: under block placement
    // every color's partner lives half the rank space away, while the
    // cost-driven solver pairs partners onto the same rank.
    let rows = 4_000u64;
    let spmv = Spmv::generate(&SpmvParams { rows, halo: 2, band_shift: rows / 2 });
    let case = Case { name: "SpMV", program: spmv.program, fns: spmv.fns, store: spmv.store };
    let mut seq = case.store.clone();
    run_program_seq(&case.program, &mut seq, &case.fns);
    for ranks in [4usize, 8] {
        let colors = 4 * ranks;
        let block = run_with_policy(&case, &seq, ranks, colors, PlacementPolicy::Block);
        let cost = run_with_policy(&case, &seq, ranks, colors, PlacementPolicy::CostDriven);
        assert!(
            cost.bytes_sent < block.bytes_sent,
            "shifted SpMV at {ranks} ranks: cost-driven moved {} B, block {} B",
            cost.bytes_sent,
            block.bytes_sent
        );
    }
}
