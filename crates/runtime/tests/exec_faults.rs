//! Task-fault tests: under any deterministic fault schedule a run must
//! produce final stores bit-identical to the sequential interpreter — via
//! retries, panic isolation, or sequential recovery — and identical
//! `FaultPlan` seeds must replay identical schedules, in place on threads
//! and on sharded ranks alike.

use partir_core::eval::ExtBindings;
use partir_core::pipeline::{auto_parallelize, Hints, Options};
use partir_core::placement::{place, PlacementConfig};
use partir_dpl::func::{FnDef, FnTable, IndexFn};
use partir_dpl::region::{FieldId, FieldKind, RegionId, Schema, Store};
use partir_ir::ast::{Loop, LoopBuilder, ReduceOp, VExpr};
use partir_ir::interp::run_program_seq;
use partir_runtime::dist::{execute_ranks, DistError, DistOptions, DistReport, Layout};
use partir_runtime::fault::{FaultPlan, InjectedPanic, MAX_TASK_RETRIES};
use rand::{Rng, SeedableRng};

/// Injected poison panics unwind through the default panic hook before the
/// executor's isolation barrier catches them; silence exactly those so the
/// test output stays readable (all other panics keep the default report).
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Figure-1-style particles/cells program: pointer indirection, a neighbor
/// map, and centered reductions in both loops.
fn figure1_fixture() -> (Vec<Loop>, FnTable, Store) {
    let mut schema = Schema::new();
    let n_cells = 48u64;
    let n_particles = 400u64;
    let cells = schema.add_region("Cells", n_cells);
    let particles = schema.add_region("Particles", n_particles);
    let cell_f = schema.add_field(particles, "cell", FieldKind::Ptr(cells));
    let pos = schema.add_field(particles, "pos", FieldKind::F64);
    let vel = schema.add_field(cells, "vel", FieldKind::F64);
    let acc = schema.add_field(cells, "acc", FieldKind::F64);
    let mut fns = FnTable::new();
    let fcell = fns.add_ptr_field("cell", particles, cells, cell_f);
    let h = fns.add(
        "h",
        cells,
        cells,
        FnDef::Index(IndexFn::AffineMod { mul: 1, add: 1, modulus: n_cells }),
    );

    let mut store = Store::new(schema);
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    for p in store.ptrs_mut(cell_f).iter_mut() {
        *p = rng.gen_range(0..n_cells);
    }
    for v in store.f64s_mut(vel).iter_mut() {
        *v = rng.gen_range(0..100) as f64;
    }
    for v in store.f64s_mut(acc).iter_mut() {
        *v = rng.gen_range(0..100) as f64;
    }

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
    (vec![l1, l2], fns, store)
}

/// Runs the program under `opts` on four threads, or on `ranks` ranks,
/// asserting every f64 field matches the sequential interpreter
/// bit-for-bit; returns the report and the store.
fn run_on(
    ranks: Option<usize>,
    program: &[Loop],
    fns: &FnTable,
    store: &Store,
    n_colors: usize,
    opts: &DistOptions,
) -> (DistReport, Store) {
    let schema = store.schema().clone();
    let plan = auto_parallelize(program, fns, &schema, &Hints::new(), Options::default())
        .expect("auto-parallelization succeeds");
    let parts = plan.evaluate(store, fns, n_colors, &ExtBindings::new());

    let mut seq_store = store.clone();
    run_program_seq(program, &mut seq_store, fns);

    let mut par_store = store.clone();
    let placed = ranks.map(|r| place(&plan, &parts, &schema, r, &PlacementConfig::default()));
    let layout = match &placed {
        Some(p) => Layout::Sharded(&p.as_ref().expect("placement").xplan),
        None => Layout::InPlace { workers: 4 },
    };
    let report = execute_ranks(program, &plan, &parts, layout, &mut par_store, fns, opts)
        .expect("faulty execution still completes")
        .report;

    for f in 0..schema.num_fields() {
        let fid = partir_dpl::region::FieldId(f as u32);
        if let partir_dpl::region::FieldData::F64(seq) = seq_store.field_data(fid) {
            let partir_dpl::region::FieldData::F64(par) = par_store.field_data(fid) else {
                panic!()
            };
            assert_eq!(seq, par, "field {fid:?} diverged under faults");
        }
    }
    (report, par_store)
}

fn run_and_compare(
    program: &[Loop],
    fns: &FnTable,
    store: &Store,
    n_colors: usize,
    opts: &DistOptions,
) -> (DistReport, Store) {
    run_on(None, program, fns, store, n_colors, opts)
}

/// Every count of a report; the timings are the only fields replays may
/// not reproduce.
fn counts(r: &DistReport) -> String {
    let mut r = *r;
    (r.pack_ns, r.exchange_wait_ns, r.unpack_ns, r.compute_ns, r.merge_ns) = (0, 0, 0, 0, 0);
    r.to_json().to_string()
}

#[test]
fn clean_kills_retry_and_match_sequential() {
    let (program, fns, store) = figure1_fixture();
    let opts = DistOptions {
        fault: Some(FaultPlan { task_failure_rate: 0.6, ..FaultPlan::quiescent(11) }),
        ..DistOptions::default()
    };
    let (report, _) = run_and_compare(&program, &fns, &store, 8, &opts);
    assert!(report.faults_injected > 0, "rate 0.6 over 16 tasks must fire");
    assert!(report.task_retries > 0, "some killed attempt must have retried");
    assert_eq!(report.panics_isolated, 0, "clean kills do not panic");
}

#[test]
fn identical_seeds_replay_identically() {
    let (program, fns, store) = figure1_fixture();
    let opts = DistOptions {
        fault: Some(FaultPlan {
            task_failure_rate: 0.5,
            poison_after: Some(8),
            ..FaultPlan::quiescent(7)
        }),
        ..DistOptions::default()
    };
    quiet_injected_panics();
    let (r1, s1) = run_and_compare(&program, &fns, &store, 8, &opts);
    let (r2, s2) = run_and_compare(&program, &fns, &store, 8, &opts);
    // Same seed ⇒ same injected-fault schedule, same retry counts, same
    // recovery set — the whole report replays, not just the result.
    assert_eq!(counts(&r1), counts(&r2));
    assert!(r1.faults_injected > 0);
    for f in 0..store.schema().num_fields() {
        let fid = partir_dpl::region::FieldId(f as u32);
        if let partir_dpl::region::FieldData::F64(a) = s1.field_data(fid) {
            let partir_dpl::region::FieldData::F64(b) = s2.field_data(fid) else { panic!() };
            assert_eq!(a, b, "replay diverged on field {fid:?}");
        }
    }

    // A different seed yields a different schedule (same final stores).
    let other = DistOptions { fault: Some(FaultPlan { seed: 8, ..opts.fault.unwrap() }), ..opts };
    let (r3, _) = run_and_compare(&program, &fns, &store, 8, &other);
    assert_ne!(
        (r1.faults_injected, r1.task_retries, r1.tasks_recovered),
        (r3.faults_injected, r3.task_retries, r3.tasks_recovered),
        "seed change should reshuffle the fault schedule"
    );
}

#[test]
fn rate_one_exhausts_retries_and_recovers_sequentially() {
    let (program, fns, store) = figure1_fixture();
    let opts = DistOptions {
        fault: Some(FaultPlan { task_failure_rate: 1.0, ..FaultPlan::quiescent(3) }),
        ..DistOptions::default()
    };
    let (report, _) = run_and_compare(&program, &fns, &store, 6, &opts);
    // Every attempt of every task dies, so every task falls through to the
    // sequential-recovery path; results are still bit-identical.
    let attempts = u64::from(MAX_TASK_RETRIES) + 1;
    assert!(report.degraded());
    assert_eq!(report.tasks_recovered, report.tasks_run);
    assert_eq!(report.task_retries, report.tasks_run * u64::from(MAX_TASK_RETRIES));
    assert_eq!(report.faults_injected, report.tasks_run * attempts);
}

#[test]
fn poison_panics_are_isolated_and_recovered() {
    quiet_injected_panics();
    let (program, fns, store) = figure1_fixture();
    let opts = DistOptions {
        fault: Some(FaultPlan {
            task_failure_rate: 0.5,
            poison_after: Some(0),
            ..FaultPlan::quiescent(21)
        }),
        ..DistOptions::default()
    };
    let (report, _) = run_and_compare(&program, &fns, &store, 8, &opts);
    assert!(report.faults_injected > 0);
    assert_eq!(
        report.panics_isolated, report.faults_injected,
        "poison_after=0 makes every injected fault a caught panic"
    );
}

/// A wrong plan must surface as a legality error even when fault injection
/// and recovery are active: injected faults are retryable, solver bugs are
/// not, and the retry loop must never mask the latter.
#[test]
fn legality_violation_is_not_masked_by_faults() {
    let mut schema = Schema::new();
    let r = schema.add_region("R", 10);
    let s_ = schema.add_region("S", 10);
    let rx = schema.add_field(r, "x", FieldKind::F64);
    let sx = schema.add_field(s_, "x", FieldKind::F64);
    let mut fns = FnTable::new();
    let g = fns.add("g", r, s_, FnDef::Index(IndexFn::AffineMod { mul: 1, add: 3, modulus: 10 }));
    let mut store = Store::new(schema);
    let mut b = LoopBuilder::new("bad", r);
    let i = b.loop_var();
    let v = b.val_read(r, rx, i);
    let gi = b.idx_apply(g, i);
    b.val_reduce(s_, sx, gi, ReduceOp::Add, VExpr::var(v));
    let program = vec![b.finish()];
    let schema2 = store.schema().clone();
    let plan =
        auto_parallelize(&program, &fns, &schema2, &Hints::new(), Options::default()).unwrap();
    let mut parts = plan.evaluate(&store, &fns, 2, &ExtBindings::new());
    let reduce_part = plan.loops[0].accesses[1].part;
    parts[reduce_part.0 as usize] = std::sync::Arc::new(partir_dpl::partition::Partition::new(
        RegionId(1),
        vec![partir_dpl::index_set::IndexSet::new(); 2],
    ));
    let opts = DistOptions {
        fault: Some(FaultPlan { task_failure_rate: 0.8, ..FaultPlan::quiescent(9) }),
        ..DistOptions::default()
    };
    let threads = Layout::InPlace { workers: 2 };
    let err = execute_ranks(&program, &plan, &parts, threads, &mut store, &fns, &opts).unwrap_err();
    assert!(matches!(err, DistError::Legality(_)), "expected a legality violation, got {err}");
}

/// Task faults are the recovery level below a rank crash, on every rank:
/// two sharded ranks under clean kills and under poison end bit-identical
/// to the interpreter, replay their counts exactly, and inject the same
/// schedule as four threads in place (it is a function of loop, color and
/// attempt alone).
#[test]
fn ranks_retry_killed_and_poisoned_tasks_bit_identically() {
    quiet_injected_panics();
    let (program, fns, store) = figure1_fixture();
    for poison_after in [None, Some(0)] {
        let opts = DistOptions {
            fault: Some(FaultPlan {
                task_failure_rate: 0.5,
                poison_after,
                ..FaultPlan::quiescent(13)
            }),
            ..DistOptions::default()
        };
        let (r1, s1) = run_on(Some(2), &program, &fns, &store, 8, &opts);
        let (r2, s2) = run_on(Some(2), &program, &fns, &store, 8, &opts);
        assert!(r1.faults_injected > 0 && r1.task_retries > 0, "{poison_after:?}");
        let poisons = if poison_after.is_some() { r1.faults_injected } else { 0 };
        assert_eq!(r1.panics_isolated, poisons, "{poison_after:?}");
        assert_eq!(counts(&r1), counts(&r2), "{poison_after:?}: replay diverged");
        assert_eq!(s1.field_data(FieldId(1)), s2.field_data(FieldId(1)));
        let (threads, _) = run_and_compare(&program, &fns, &store, 8, &opts);
        let schedule = |r: &DistReport| (r.faults_injected, r.task_retries, r.tasks_recovered);
        assert_eq!(schedule(&r1), schedule(&threads), "{poison_after:?}");
    }
}
