//! Benchmark harness crate; see the bin targets and benches.
//!
//! The bin targets share this module's report plumbing: every harness
//! accepts `--json [--out PATH]` and emits a `partir-report-v1` envelope
//! (see `partir_obs::report`) instead of the human tables, so experiment
//! results are machine-readable and diffable across PRs.

use partir_core::pipeline::ParallelPlan;
use partir_core::solve::BindRule;
use partir_dpl::func::FnTable;
use partir_obs::json::Json;
use partir_obs::report;
use std::path::PathBuf;

/// Common harness arguments, parsed from `std::env::args`.
///
/// * `--json` — emit the machine-readable report on stdout;
/// * `--out PATH` — write the report to `PATH` instead of stdout
///   (implies `--json`);
/// * `--trace-out PATH` — write a Chrome `trace_event` JSON file of the
///   per-rank timelines (honored by `fig_dist`; harnesses without
///   timelines ignore it);
/// * `--assert-scaling` — fail when the largest rank count's wall-clock
///   exceeds 1-rank wall-clock by more than the allowed ratio on the
///   scaling-critical apps (honored by `fig_dist`; the CI perf gate);
/// * `--max-ratio X` — the allowed `wall(max ranks) / wall(1 rank)` ratio
///   for `--assert-scaling` (overrides the parallelism-aware default);
/// * `--ranks N[,N…]` — the rank counts `fig_dist` sweeps (default
///   `1,2,4,8`);
/// * `--fault-seed N` — run the fault-tolerance measurement: inject a
///   seeded rank crash (plus mild message loss and duplication) into every
///   app at the largest rank count, verify survivor-side recovery, and
///   emit a `dist_recovery` report section with recovery wall-clock,
///   migrated bytes vs a full re-shard, and the fault-free checkpoint
///   overhead at the Young/Daly interval, gated under 5% (honored by
///   `fig_dist`);
/// * `--assert` — fail when the harness's built-in acceptance gates do
///   not hold (honored by `fig_serve`: warm hit rate must be 100% and
///   warm plan acquisition at least 10x faster than the cold median);
/// * `--placement block|cost|compare` — owner-mapping policy for the
///   distributed runs (honored by `fig_dist`). `block` and `cost` set the
///   policy for the normal scaling table; `compare` runs only the
///   placement axis: block vs cost-driven on placement-adversarial inputs
///   with over-decomposed colors, asserting cost-driven never predicts
///   more cross-rank ghost bytes than block and emitting a `placement`
///   report section.
#[derive(Clone, Debug, Default)]
pub struct BenchArgs {
    pub json: bool,
    pub out: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
    pub assert_scaling: bool,
    pub assert_gates: bool,
    pub max_ratio: Option<f64>,
    pub ranks: Option<Vec<usize>>,
    pub fault_seed: Option<u64>,
    pub placement: Option<PlacementMode>,
}

/// `--placement` modes understood by the harnesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementMode {
    /// Contiguous block owner mapping for the normal tables.
    Block,
    /// Cost-driven owner mapping for the normal tables.
    Cost,
    /// Run only the block-vs-cost placement comparison axis.
    Compare,
}

impl BenchArgs {
    pub fn parse() -> BenchArgs {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Argument parsing proper, separated from the process-exit policy so
    /// rejection paths are unit-testable.
    pub fn parse_from(it: impl IntoIterator<Item = String>) -> Result<BenchArgs, String> {
        let mut args = BenchArgs::default();
        let mut it = it.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--json" => args.json = true,
                "--out" => {
                    let path =
                        it.next().ok_or_else(|| "--out requires a path argument".to_string())?;
                    args.out = Some(PathBuf::from(path));
                    args.json = true;
                }
                "--trace-out" => {
                    let path = it
                        .next()
                        .ok_or_else(|| "--trace-out requires a path argument".to_string())?;
                    args.trace_out = Some(PathBuf::from(path));
                }
                "--assert-scaling" => args.assert_scaling = true,
                "--assert" => args.assert_gates = true,
                "--max-ratio" => {
                    let v = it
                        .next()
                        .ok_or_else(|| "--max-ratio requires a number argument".to_string())?;
                    let ratio: f64 = v
                        .trim()
                        .parse()
                        .map_err(|_| format!("--max-ratio: '{v}' is not a number"))?;
                    if !ratio.is_finite() || ratio <= 0.0 {
                        return Err(format!("--max-ratio must be a positive number, got {v}"));
                    }
                    args.max_ratio = Some(ratio);
                }
                "--ranks" => {
                    let v = it
                        .next()
                        .ok_or_else(|| "--ranks requires a comma-separated list".to_string())?;
                    let ranks: Vec<usize> = v
                        .split(',')
                        .map(|p| p.trim().parse().ok().filter(|&n| n > 0))
                        .collect::<Option<_>>()
                        .ok_or_else(|| {
                            format!("--ranks: '{v}' is not a list of positive integers")
                        })?;
                    args.ranks = Some(ranks);
                }
                "--placement" => {
                    let v = it
                        .next()
                        .ok_or_else(|| "--placement requires a mode argument".to_string())?;
                    args.placement = Some(match v.trim() {
                        "block" => PlacementMode::Block,
                        "cost" | "cost-driven" => PlacementMode::Cost,
                        "compare" => PlacementMode::Compare,
                        other => {
                            return Err(format!(
                                "--placement: '{other}' is not a mode (expected block|cost|compare)"
                            ));
                        }
                    });
                }
                "--fault-seed" => {
                    let v = it
                        .next()
                        .ok_or_else(|| "--fault-seed requires a number argument".to_string())?;
                    let seed: u64 = v
                        .trim()
                        .parse()
                        .map_err(|_| format!("--fault-seed: '{v}' is not an unsigned integer"))?;
                    args.fault_seed = Some(seed);
                }
                other => {
                    return Err(format!(
                        "unknown argument '{other}' (expected --json [--out PATH] \
                         [--trace-out PATH] [--assert-scaling] [--assert] \
                         [--max-ratio X] [--ranks N,N] [--fault-seed N] \
                         [--placement block|cost|compare])"
                    ));
                }
            }
        }
        Ok(args)
    }

    /// Emits a finished report: writes `--out` / prints the JSON when
    /// requested, otherwise runs the human-readable printer. Exits 1 with
    /// a message on write failure (unwritable path, missing directory).
    pub fn emit(&self, experiment: &str, payload: Json, human: impl FnOnce()) {
        if let Err(msg) = self.try_emit(experiment, payload, human) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    }

    /// [`emit`](Self::emit) without the process-exit policy.
    pub fn try_emit(
        &self,
        experiment: &str,
        payload: Json,
        human: impl FnOnce(),
    ) -> Result<(), String> {
        if !self.json {
            human();
            return Ok(());
        }
        let mut doc = report::envelope(experiment);
        if let Json::Obj(fields) = &payload {
            for (k, v) in fields {
                doc = doc.with(k.clone(), v.clone());
            }
        } else {
            doc = doc.with("payload", payload);
        }
        let text = format!("{doc}\n");
        match &self.out {
            None => {
                print!("{text}");
                Ok(())
            }
            Some(path) => match std::fs::write(path, &text) {
                Ok(()) => {
                    eprintln!("wrote {}", path.display());
                    Ok(())
                }
                Err(e) => Err(format!("failed to write {}: {e}", path.display())),
            },
        }
    }
}

/// JSON form of one auto-parallelization run: the Table 1 timing rows plus
/// the solver/unification internals the paper's table doesn't show but the
/// explanation traces record, and the per-symbol equality provenance.
pub fn plan_json(name: &str, plan: &ParallelPlan, loops: usize, fns: &FnTable) -> Json {
    let t = &plan.timings;
    let s = &plan.solution.stats;
    let u = &plan.unified;
    let (exprs_interned, dedup_hits) = plan.system.arena.counters();
    let mut provenance = Json::array();
    for (i, &e) in plan.solution.binding_ids.iter().enumerate() {
        let rule = plan.solution.provenance.get(i).copied().unwrap_or(BindRule::EqualTrivial);
        provenance = provenance.push(
            Json::object()
                .with("symbol", format!("P{i}"))
                .with("name", plan.system.sym_names.get(i).map(String::as_str).unwrap_or(""))
                .with("binding", plan.system.display_expr(e, fns))
                .with("rule", rule.as_str()),
        );
    }
    let mut merges = Json::array();
    for m in &plan.unified.merge_log {
        merges =
            merges.push(Json::object().with("stage", m.stage).with("detail", m.detail.as_str()));
    }
    Json::object()
        .with("name", name)
        .with("loops", loops)
        .with("partitions", plan.num_partitions())
        .with("relaxed_loops", plan.loops.iter().filter(|l| l.relaxed).count())
        .with(
            "timings_ms",
            Json::object()
                .with("inference", report::ns_to_ms(t.inference.as_nanos()))
                .with("solver", report::ns_to_ms(t.solver.as_nanos()))
                .with("rewrite", report::ns_to_ms(t.rewrite.as_nanos()))
                .with("total", report::ns_to_ms((t.inference + t.solver + t.rewrite).as_nanos())),
        )
        .with(
            "solver",
            Json::object()
                .with("nodes_explored", s.nodes_explored)
                .with("candidates_tried", s.candidates_tried)
                .with("backtracks", s.backtracks)
                .with("lemma_applications", s.lemma_applications)
                .with("degraded", plan.solution.degraded)
                .with(
                    "budget_exhausted",
                    s.exhausted.map(|r| Json::from(r.as_str())).unwrap_or(Json::Null),
                ),
        )
        .with(
            "interning",
            Json::object()
                .with("exprs_interned", exprs_interned)
                .with("dedup_hits", dedup_hits)
                .with("subst_cache_hits", s.subst_cache_hits)
                .with("lemma_memo_hits", s.lemma_memo_hits),
        )
        .with(
            "unification",
            Json::object()
                .with("merged_symbols", u.merged)
                .with("chain_collapses", u.stats.chain_collapses)
                .with("candidates_considered", u.stats.candidates_considered)
                .with("merges_accepted", u.stats.merges_accepted)
                .with("rejected_structural", u.stats.rejected_structural)
                .with("rejected_unsolvable", u.stats.rejected_unsolvable)
                .with("max_graph_nodes", u.stats.max_graph_nodes)
                .with("max_graph_edges", u.stats.max_graph_edges)
                .with("check_lemma_applications", u.check_stats.lemma_applications),
        )
        .with("unify_merges", merges)
        .with("provenance", provenance)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_from_accepts_json_and_out() {
        let a = BenchArgs::parse_from(argv(&["--json"])).unwrap();
        assert!(a.json && a.out.is_none());
        let a = BenchArgs::parse_from(argv(&["--out", "/tmp/x.json"])).unwrap();
        assert!(a.json);
        assert_eq!(a.out.as_deref(), Some(std::path::Path::new("/tmp/x.json")));
    }

    #[test]
    fn parse_from_accepts_trace_out() {
        let a = BenchArgs::parse_from(argv(&["--trace-out", "/tmp/t.json"])).unwrap();
        assert!(!a.json, "--trace-out alone does not imply --json");
        assert_eq!(a.trace_out.as_deref(), Some(std::path::Path::new("/tmp/t.json")));
    }

    #[test]
    fn parse_from_accepts_scaling_gate_flags() {
        let a = BenchArgs::parse_from(argv(&["--assert-scaling"])).unwrap();
        assert!(a.assert_scaling && a.max_ratio.is_none());
        let a = BenchArgs::parse_from(argv(&["--assert-scaling", "--max-ratio", "1.25"])).unwrap();
        assert_eq!(a.max_ratio, Some(1.25));
        let err = BenchArgs::parse_from(argv(&["--max-ratio", "zero"])).unwrap_err();
        assert!(err.contains("not a number"), "{err}");
        let err = BenchArgs::parse_from(argv(&["--max-ratio", "-2"])).unwrap_err();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn parse_from_accepts_rank_lists() {
        let a = BenchArgs::parse_from(argv(&["--ranks", "1, 8"])).unwrap();
        assert_eq!(a.ranks, Some(vec![1, 8]));
        assert_eq!(BenchArgs::parse_from(argv(&[])).unwrap().ranks, None);
        for bad in ["", "2,x", "0", "4,"] {
            let err = BenchArgs::parse_from(argv(&["--ranks", bad])).unwrap_err();
            assert!(err.contains("--ranks"), "{err}");
        }
        assert!(BenchArgs::parse_from(argv(&["--ranks"])).is_err());
    }

    #[test]
    fn parse_from_accepts_fault_seed() {
        let a = BenchArgs::parse_from(argv(&["--fault-seed", "42"])).unwrap();
        assert_eq!(a.fault_seed, Some(42));
        assert!(!a.json, "--fault-seed alone does not imply --json");
        let err = BenchArgs::parse_from(argv(&["--fault-seed"])).unwrap_err();
        assert!(err.contains("requires a number"), "{err}");
        let err = BenchArgs::parse_from(argv(&["--fault-seed", "-3"])).unwrap_err();
        assert!(err.contains("not an unsigned integer"), "{err}");
    }

    #[test]
    fn parse_from_accepts_placement_modes() {
        let a = BenchArgs::parse_from(argv(&["--placement", "block"])).unwrap();
        assert_eq!(a.placement, Some(PlacementMode::Block));
        let a = BenchArgs::parse_from(argv(&["--placement", "cost"])).unwrap();
        assert_eq!(a.placement, Some(PlacementMode::Cost));
        let a = BenchArgs::parse_from(argv(&["--placement", "cost-driven"])).unwrap();
        assert_eq!(a.placement, Some(PlacementMode::Cost));
        let a = BenchArgs::parse_from(argv(&["--placement", "compare"])).unwrap();
        assert_eq!(a.placement, Some(PlacementMode::Compare));
        let err = BenchArgs::parse_from(argv(&["--placement", "greedy"])).unwrap_err();
        assert!(err.contains("block|cost|compare"), "{err}");
        let err = BenchArgs::parse_from(argv(&["--placement"])).unwrap_err();
        assert!(err.contains("requires a mode"), "{err}");
    }

    #[test]
    fn parse_from_accepts_assert() {
        let a = BenchArgs::parse_from(argv(&["--assert", "--json"])).unwrap();
        assert!(a.assert_gates && a.json);
        let a = BenchArgs::parse_from(argv(&["--assert-scaling"])).unwrap();
        assert!(a.assert_scaling && !a.assert_gates, "--assert-scaling is a different flag");
    }

    #[test]
    fn parse_from_rejects_bad_args_with_message() {
        let err = BenchArgs::parse_from(argv(&["--bogus"])).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        let err = BenchArgs::parse_from(argv(&["--out"])).unwrap_err();
        assert!(err.contains("requires a path"), "{err}");
        let err = BenchArgs::parse_from(argv(&["--trace-out"])).unwrap_err();
        assert!(err.contains("requires a path"), "{err}");
    }

    #[test]
    fn try_emit_reports_unwritable_path() {
        let args = BenchArgs {
            json: true,
            out: Some(PathBuf::from("/nonexistent-dir-partir/report.json")),
            ..BenchArgs::default()
        };
        let err = args.try_emit("t", Json::object().with("k", 1u64), || {}).unwrap_err();
        assert!(err.contains("failed to write"), "{err}");
        assert!(err.contains("/nonexistent-dir-partir/report.json"), "{err}");
    }

    #[test]
    fn try_emit_without_json_runs_human_printer() {
        let mut ran = false;
        let args = BenchArgs::default();
        args.try_emit("t", Json::object(), || ran = true).unwrap();
        assert!(ran);
    }
}
