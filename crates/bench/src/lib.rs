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
///   timelines ignore it).
///
/// The harnesses take no other flag: each checks all of its gates on every
/// run.
#[derive(Clone, Debug, Default)]
pub struct BenchArgs {
    pub json: bool,
    pub out: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
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
                other => {
                    return Err(format!(
                        "unknown argument '{other}' (expected --json [--out PATH] \
                         [--trace-out PATH])"
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
    fn parse_from_rejects_bad_args_with_message() {
        let err = BenchArgs::parse_from(argv(&["--bogus"])).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        let err = BenchArgs::parse_from(argv(&["--out"])).unwrap_err();
        assert!(err.contains("requires a path"), "{err}");
        let err = BenchArgs::parse_from(argv(&["--trace-out"])).unwrap_err();
        assert!(err.contains("requires a path"), "{err}");
        // Every harness checks all of its gates on every run; the flags
        // that once chose a mode or a gate are gone.
        for gone in [
            "--assert-scaling",
            "--max-ratio",
            "--ranks",
            "--placement",
            "--fault-seed",
            "--assert",
        ] {
            let err = BenchArgs::parse_from(argv(&[gone, "1"])).unwrap_err();
            assert!(err.starts_with(&format!("unknown argument '{gone}'")), "{err}");
        }
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
