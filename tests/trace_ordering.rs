//! Cross-rank timeline well-formedness, empirically: for randomly
//! generated parallelizable programs at 1/2/4/8 ranks, the per-rank
//! timelines the SPMD backend collects are structurally sound — gapless
//! per-`(rank, epoch)` sequence ids starting at 0, non-decreasing
//! timestamps within an epoch, every rank covering every epoch — the
//! critical-path profile attributes the full wall-clock, and the
//! predicted-vs-measured communication accounting is exact (strict mode
//! stays silent). Each rank waits for its ghosts once per epoch: its one
//! `halo_compute` span comes after a `recv_wait`/`unpack` pair from every
//! rank that sends it ghosts in that loop, and after no other receive.

use partir::core::placement::PlacementConfig;
use partir::obs::trace::{SpanKind, TraceSpan};
use partir::prelude::*;
use proptest::prelude::*;

mod common;
use common::{arb_cfg, assert_f64_fields_eq, build};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn timelines_are_well_formed_on_all_rank_counts(cfg in arb_cfg()) {
        let built = build(&cfg);
        let mut seq = built.store.clone();
        run_program_seq(&built.program, &mut seq, &built.fns);

        for ranks in [1usize, 2, 4, 8] {
            let plan = Partir::new(
                built.program.clone(),
                built.fns.clone(),
                built.store.schema().clone(),
            )
            .colors(cfg.colors.max(ranks))
            .solve()
            .expect("generated programs are parallelizable");

            let mut par = built.store.clone();
            let outcome = Run::new()
                .backend(Backend::Ranks(ranks))
                .obs(ObsConfig { timeline: true, strict_volume: true, ..ObsConfig::disabled() })
                .run(&plan, &mut par)
                .map_err(|e| TestCaseError::fail(format!("{ranks} ranks failed: {e}")))?;
            assert_f64_fields_eq(&seq, &par, &format!("{ranks} ranks (cfg {cfg:?})"))?;

            let trace = outcome.trace.as_ref().expect("timeline collection was requested");
            if let Err(e) = trace.validate() {
                return Err(TestCaseError::fail(format!("{ranks} ranks: malformed: {e}")));
            }
            prop_assert_eq!(trace.n_epochs(), built.program.len(), "one epoch per loop");
            for r in 0..ranks {
                prop_assert!(
                    trace.rank_spans(r).next().is_some(),
                    "rank {} recorded no spans",
                    r
                );
            }

            // The exchange plan the run used (memoized by the plan).
            let artifacts = plan
                .solved()
                .dist_artifacts(&built.store, ranks, &PlacementConfig::default())
                .expect("the run derived it");
            for (epoch, lx) in artifacts.placement.xplan.loops.iter().enumerate() {
                for r in 0..ranks {
                    let mut spans: Vec<_> =
                        trace.rank_spans(r).filter(|s| s.epoch as usize == epoch).collect();
                    spans.sort_by_key(|s| s.seq);
                    let at = format!("{ranks} ranks, rank {r}, epoch {epoch}");
                    let halos: Vec<usize> = (0..spans.len())
                        .filter(|&i| spans[i].kind == SpanKind::HaloCompute)
                        .collect();
                    prop_assert_eq!(halos.len(), 1, "{}: halo_compute spans", at);
                    let recvs: Vec<&TraceSpan> = spans[..halos[0]]
                        .iter()
                        .copied()
                        .filter(|s| matches!(s.kind, SpanKind::RecvWait | SpanKind::Unpack))
                        .collect();
                    let mut sources = Vec::new();
                    for pair in recvs.chunks(2) {
                        let (wait, unpack) = (pair[0], pair.get(1).copied());
                        let unpacks =
                            |u: &TraceSpan| (u.kind, u.peer) == (SpanKind::Unpack, wait.peer);
                        prop_assert!(
                            wait.kind == SpanKind::RecvWait && unpack.is_some_and(unpacks),
                            "{}: a recv_wait without its unpack",
                            at
                        );
                        sources.push(wait.peer.expect("a receive names its peer") as usize);
                    }
                    sources.sort_unstable();
                    let sends = |&s: &usize| s != r && !lx.pairs[s][r].ghost.is_empty();
                    let want: Vec<usize> = (0..ranks).filter(sends).collect();
                    prop_assert_eq!(sources, want, "{}: ghost sources before the boundary", at);
                }
            }

            let volume = outcome.volume.as_ref().expect("volume accounting present");
            prop_assert!(volume.is_clean(), "dirty accounting at {} ranks", ranks);
            let prof = partir::obs::profile::DistProfile::from_trace(trace);
            prop_assert!(
                (prof.coverage() - 1.0).abs() < 1e-12,
                "profile covers {} of wall-clock",
                prof.coverage()
            );
        }
    }
}
