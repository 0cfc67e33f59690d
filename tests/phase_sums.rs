//! The report and the timeline read one clock: on a traced, fault-free
//! run, each per-phase timing of the report is exactly the summed
//! duration of its span kinds over every rank — `pack_ns` of Pack and
//! Send, `exchange_wait_ns` of RecvWait, `unpack_ns` of Unpack,
//! `compute_ns` of InteriorCompute and HaloCompute, `merge_ns` of Merge —
//! on the rank backend and on the threads backend alike.

use partir::obs::trace::{SpanKind, Trace};
use partir::prelude::*;

mod common;
use common::{build, Cfg};

/// `(field, its value in the report, the summed durations of its spans)`.
fn phase_sums(report: &DistReport, trace: &Trace) -> Vec<(&'static str, u64, u64)> {
    let sum = |kinds: &[SpanKind]| -> u64 {
        trace.spans.iter().filter(|s| kinds.contains(&s.kind)).map(|s| s.dur_ns).sum()
    };
    vec![
        ("pack_ns", report.pack_ns, sum(&[SpanKind::Pack, SpanKind::Send])),
        ("exchange_wait_ns", report.exchange_wait_ns, sum(&[SpanKind::RecvWait])),
        ("unpack_ns", report.unpack_ns, sum(&[SpanKind::Unpack])),
        ("compute_ns", report.compute_ns, sum(&[SpanKind::InteriorCompute, SpanKind::HaloCompute])),
        ("merge_ns", report.merge_ns, sum(&[SpanKind::Merge])),
    ]
}

#[test]
fn report_timings_are_the_sums_of_their_spans() {
    let cfg = Cfg {
        n_a: 64,
        n_b: 32,
        colors: 8,
        read_ptr_chain: false,
        read_affine: true,
        reduce_via_ptr: true,
        reduce_via_affine: true,
        second_loop: true,
        ptr_seed: 5,
    };
    let built = build(&cfg);
    let plan = Partir::new(built.program.clone(), built.fns.clone(), built.store.schema().clone())
        .colors(cfg.colors)
        .solve()
        .expect("fixed program is parallelizable");
    for backend in [Backend::Ranks(4), Backend::Threads(2)] {
        let mut store = built.store.clone();
        let outcome = Run::new()
            .backend(backend)
            .obs(ObsConfig { timeline: true, ..ObsConfig::disabled() })
            .run(&plan, &mut store)
            .expect("run succeeds");
        let report = outcome.report.stats();
        let trace = outcome.trace.expect("timeline collected");
        if matches!(backend, Backend::Ranks(_)) {
            assert!(report.messages > 0, "the rank run exchanges: {report:?}");
        }
        for (field, reported, spans) in phase_sums(report, &trace) {
            assert_eq!(reported, spans, "{backend:?}: {field} against its spans");
        }
    }
}
