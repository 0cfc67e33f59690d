//! Explicit observability / fault / rank configuration — and the single
//! place where `PARTIR_*` environment variables are parsed.
//!
//! The builder API (`partir::Partir`) passes [`ObsConfig`] and the fault
//! settings explicitly; the environment variables remain supported as
//! *defaults only*, parsed here and nowhere else:
//!
//! | variable | meaning | consumed by |
//! |---|---|---|
//! | `PARTIR_TRACE` | emit span/instant events to stderr | [`ObsConfig::from_env`] |
//! | `PARTIR_METRICS` | emit counter events to stderr | [`ObsConfig::from_env`] |
//! | `PARTIR_TIMELINE` | collect per-rank timelines on the rank backend | [`ObsConfig::from_env`] |
//! | `PARTIR_STRICT_VOLUME` | error on predicted-vs-measured byte mismatch | [`ObsConfig::from_env`] |
//! | `PARTIR_REPORT_EPOCH` | fixed `created_unix_ms` for diffable reports | [`report_epoch_env`] |
//! | `PARTIR_FAULT_SEED` | fault-injection seed | [`fault_env`] |
//! | `PARTIR_FAULT_RATE` | task-attempt failure probability (default 0.3) | [`fault_env`] |
//! | `PARTIR_FAULT_POISON_AFTER` | ordinal after which kills poison | [`fault_env`] |
//! | `PARTIR_RANKS` | comma-separated rank counts for test matrices | [`ranks_env`] |
//! | `PARTIR_SCALING_MAX_RATIO` | allowed `wall(max ranks)/wall(1)` for the `fig_dist --assert-scaling` gate | [`scaling_max_ratio_env`] |
//! | `PARTIR_DIST_FAULT_SEED` | rank-backend fault-injection seed | [`dist_fault_env`] |
//! | `PARTIR_DIST_FAULT_DROP_RATE` | per-message drop probability (default 0.0) | [`dist_fault_env`] |
//! | `PARTIR_DIST_FAULT_DUP_RATE` | per-message duplication probability (default 0.0) | [`dist_fault_env`] |
//! | `PARTIR_DIST_FAULT_CRASH_RANK` | rank to crash (with `…_CRASH_EPOCH`) | [`dist_fault_env`] |
//! | `PARTIR_DIST_FAULT_CRASH_EPOCH` | epoch at which the rank crashes | [`dist_fault_env`] |
//! | `PARTIR_DIST_FAULT_CRASH_SILENT` | crash without notifying peers (detection by deadline) | [`dist_fault_env`] |
//! | `PARTIR_DIST_CHECKPOINT_INTERVAL` | epochs between owned-shard checkpoints on the rank backend | [`dist_checkpoint_interval_env`] |
//! | `PARTIR_PLACEMENT` | owner-mapping policy: `block` or `cost` | [`placement_env`] |
//! | `PARTIR_PLACEMENT_IMBALANCE` | allowed per-rank owned-bytes imbalance factor (≥ 1) | [`placement_env`] |
//! | `PARTIR_PLACEMENT_PASSES` | max gain-refinement passes | [`placement_env`] |
//! | `PARTIR_PLACEMENT_SPEEDS` | comma-separated per-rank compute speeds | [`placement_env`] |
//! | `PARTIR_PLACEMENT_BANDWIDTHS` | comma-separated per-rank bandwidth tiers | [`placement_env`] |
//! | `PARTIR_SERVE_WORKERS` | worker threads in the solve service | [`serve_env`] |
//! | `PARTIR_SERVE_QUEUE_CAP` | max in-flight requests before `serve.queue_full` | [`serve_env`] |
//! | `PARTIR_SERVE_CACHE_BYTES` | plan-cache LRU capacity in bytes | [`serve_env`] |
//!
//! Direct env sniffing elsewhere in the workspace is deprecated; new code
//! should take these structs through the builder.

use crate::StderrSink;
use std::sync::Arc;

/// Truthy env flag: set, non-empty, and not `"0"`.
pub fn env_flag(name: &str) -> bool {
    matches!(std::env::var(name), Ok(v) if !v.is_empty() && v != "0")
}

/// Which observability streams are enabled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Span/instant events (phase boundaries, solver decisions).
    pub trace: bool,
    /// Counter events (volumes, check counts).
    pub metrics: bool,
    /// Per-rank timeline collection on the rank backend: every epoch
    /// phase (pack/send/recv-wait/unpack/compute/merge) is recorded as a
    /// [`crate::trace::TraceSpan`], exportable as a Chrome trace and
    /// analyzable into the `dist_profile` critical-path breakdown.
    /// Independent of `trace` — timelines come back in the run's outcome,
    /// not through a sink.
    pub timeline: bool,
    /// Error (instead of just reporting a delta) when measured bytes on
    /// any `(src, dst)` pair disagree with what the `ExchangePlan`
    /// predicts — a mismatch means the runtime moved data the constraint
    /// solution did not account for, a correctness smell.
    pub strict_volume: bool,
}

impl ObsConfig {
    /// Everything off (the default).
    pub fn disabled() -> Self {
        ObsConfig::default()
    }

    /// Defaults from `PARTIR_TRACE` / `PARTIR_METRICS` /
    /// `PARTIR_TIMELINE` / `PARTIR_STRICT_VOLUME` — the only place these
    /// variables are read.
    pub fn from_env() -> Self {
        ObsConfig {
            trace: env_flag("PARTIR_TRACE"),
            metrics: env_flag("PARTIR_METRICS"),
            timeline: env_flag("PARTIR_TIMELINE"),
            strict_volume: env_flag("PARTIR_STRICT_VOLUME"),
        }
    }

    /// Installs the stderr line-JSON sink for the enabled streams. Does
    /// nothing when both streams are off, and never replaces a sink that
    /// is already installed (so programmatic [`crate::install_sink`]
    /// callers — tests, report harnesses — always win). `timeline` and
    /// `strict_volume` need no sink; the rank backend gets them from the
    /// run's configuration directly.
    pub fn apply(&self) {
        if self.trace || self.metrics {
            crate::install_default_sink(Arc::new(StderrSink), self.trace, self.metrics);
        }
    }
}

/// Parses `PARTIR_REPORT_EPOCH` — a fixed unix-milliseconds value for
/// report envelopes, so CI can diff reports across runs byte-for-byte.
pub fn report_epoch_env() -> Option<u64> {
    std::env::var("PARTIR_REPORT_EPOCH").ok()?.trim().parse().ok()
}

/// Fault-injection defaults from the environment (`PARTIR_FAULT_*`). The
/// runtime's `FaultPlan` consumes this; obs stays runtime-agnostic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEnv {
    pub seed: u64,
    /// Task-attempt failure probability in `[0, 1]`.
    pub rate: f64,
    /// Cumulative task ordinal at and after which kills become poisons.
    pub poison_after: Option<u64>,
}

/// Parses `PARTIR_FAULT_SEED` / `PARTIR_FAULT_RATE` /
/// `PARTIR_FAULT_POISON_AFTER`. `None` when the seed is unset or
/// unparsable; the rate defaults to `0.3` when only the seed is given.
pub fn fault_env() -> Option<FaultEnv> {
    let seed: u64 = std::env::var("PARTIR_FAULT_SEED").ok()?.trim().parse().ok()?;
    let rate =
        std::env::var("PARTIR_FAULT_RATE").ok().and_then(|v| v.trim().parse().ok()).unwrap_or(0.3);
    let poison_after =
        std::env::var("PARTIR_FAULT_POISON_AFTER").ok().and_then(|v| v.trim().parse().ok());
    Some(FaultEnv { seed, rate, poison_after })
}

/// Parses `PARTIR_RANKS` (comma-separated rank counts, e.g. `2,4,8`) for
/// test/CI matrices. Unset, empty, or unparsable entries are dropped.
pub fn ranks_env() -> Vec<usize> {
    std::env::var("PARTIR_RANKS")
        .map(|v| v.split(',').filter_map(|p| p.trim().parse().ok()).filter(|&n| n > 0).collect())
        .unwrap_or_default()
}

/// Rank-backend fault-injection defaults from the environment
/// (`PARTIR_DIST_FAULT_*`). The runtime's `DistFaultPlan` consumes this;
/// obs stays runtime-agnostic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistFaultEnv {
    pub seed: u64,
    /// Per-message drop probability in `[0, 1]`.
    pub drop_rate: f64,
    /// Per-message duplication probability in `[0, 1]`.
    pub dup_rate: f64,
    /// `(rank, epoch, silent)`: crash `rank` at the top of `epoch`;
    /// `silent` crashes send no notice and are detected by deadline.
    pub crash: Option<(usize, u64, bool)>,
}

/// Parses `PARTIR_DIST_FAULT_SEED` / `…_DROP_RATE` / `…_DUP_RATE` /
/// `…_CRASH_RANK` / `…_CRASH_EPOCH` / `…_CRASH_SILENT`. `None` when the
/// seed is unset or unparsable; both rates default to `0.0`, and the crash
/// requires both rank and epoch.
pub fn dist_fault_env() -> Option<DistFaultEnv> {
    let seed: u64 = std::env::var("PARTIR_DIST_FAULT_SEED").ok()?.trim().parse().ok()?;
    let rate = |name: &str| -> f64 {
        std::env::var(name).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(0.0)
    };
    let crash_rank: Option<usize> =
        std::env::var("PARTIR_DIST_FAULT_CRASH_RANK").ok().and_then(|v| v.trim().parse().ok());
    let crash_epoch: Option<u64> =
        std::env::var("PARTIR_DIST_FAULT_CRASH_EPOCH").ok().and_then(|v| v.trim().parse().ok());
    let crash = match (crash_rank, crash_epoch) {
        (Some(r), Some(e)) => Some((r, e, env_flag("PARTIR_DIST_FAULT_CRASH_SILENT"))),
        _ => None,
    };
    Some(DistFaultEnv {
        seed,
        drop_rate: rate("PARTIR_DIST_FAULT_DROP_RATE"),
        dup_rate: rate("PARTIR_DIST_FAULT_DUP_RATE"),
        crash,
    })
}

/// Parses `PARTIR_DIST_CHECKPOINT_INTERVAL` — epochs between owned-shard
/// checkpoints on the rank backend. `None` when unset, unparsable, or
/// zero (checkpointing off).
pub fn dist_checkpoint_interval_env() -> Option<u64> {
    let n: u64 = std::env::var("PARTIR_DIST_CHECKPOINT_INTERVAL").ok()?.trim().parse().ok()?;
    (n > 0).then_some(n)
}

/// Placement defaults from the environment (`PARTIR_PLACEMENT*`). The
/// core's `PlacementConfig` consumes this; obs stays solver-agnostic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlacementEnv {
    /// `true` for `PARTIR_PLACEMENT=cost`, `false` for `block`.
    pub cost_driven: bool,
    /// Allowed per-rank owned-bytes imbalance factor, `≥ 1.0`.
    pub imbalance: Option<f64>,
    /// Max gain-refinement passes.
    pub max_passes: Option<usize>,
    /// Per-rank compute speeds (heterogeneous machine model).
    pub speeds: Vec<f64>,
    /// Per-rank bandwidth tiers (heterogeneous machine model).
    pub bandwidths: Vec<f64>,
}

/// Parses `PARTIR_PLACEMENT` (`block` / `cost`) plus the tuning knobs
/// `PARTIR_PLACEMENT_IMBALANCE` (float ≥ 1), `PARTIR_PLACEMENT_PASSES`
/// (integer), and the heterogeneous machine-model vectors
/// `PARTIR_PLACEMENT_SPEEDS` / `PARTIR_PLACEMENT_BANDWIDTHS`
/// (comma-separated positive floats; unparsable or non-positive entries
/// are dropped). `None` when no `PARTIR_PLACEMENT*` variable is set at
/// all; an unrecognized policy value means "block".
pub fn placement_env() -> Option<PlacementEnv> {
    let policy = std::env::var("PARTIR_PLACEMENT").ok();
    let imbalance: Option<f64> = std::env::var("PARTIR_PLACEMENT_IMBALANCE")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|r: &f64| r.is_finite() && *r >= 1.0);
    let max_passes: Option<usize> =
        std::env::var("PARTIR_PLACEMENT_PASSES").ok().and_then(|v| v.trim().parse().ok());
    let floats = |name: &str| -> Vec<f64> {
        std::env::var(name)
            .map(|v| {
                v.split(',')
                    .filter_map(|p| p.trim().parse::<f64>().ok())
                    .filter(|x| x.is_finite() && *x > 0.0)
                    .collect()
            })
            .unwrap_or_default()
    };
    let speeds = floats("PARTIR_PLACEMENT_SPEEDS");
    let bandwidths = floats("PARTIR_PLACEMENT_BANDWIDTHS");
    if policy.is_none()
        && imbalance.is_none()
        && max_passes.is_none()
        && speeds.is_empty()
        && bandwidths.is_empty()
    {
        return None;
    }
    Some(PlacementEnv {
        cost_driven: matches!(policy.as_deref().map(str::trim), Some("cost" | "cost-driven")),
        imbalance,
        max_passes,
        speeds,
        bandwidths,
    })
}

/// Serving-layer defaults from the environment (`PARTIR_SERVE_*`). The
/// facade's `serve::ServeConfig` consumes this; obs stays server-agnostic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeEnv {
    /// Worker threads processing solve requests.
    pub workers: Option<usize>,
    /// Max in-flight (queued + executing) requests before submissions are
    /// rejected with `serve.queue_full`.
    pub queue_cap: Option<usize>,
    /// Plan-cache LRU capacity in estimated bytes.
    pub cache_bytes: Option<u64>,
}

/// Parses `PARTIR_SERVE_WORKERS` / `PARTIR_SERVE_QUEUE_CAP` /
/// `PARTIR_SERVE_CACHE_BYTES`. Unset or unparsable variables yield `None`
/// fields (the server then applies its own defaults); zero workers or a
/// zero queue cap are dropped as unusable.
pub fn serve_env() -> ServeEnv {
    let num = |name: &str| -> Option<u64> {
        std::env::var(name).ok().and_then(|v| v.trim().parse().ok())
    };
    ServeEnv {
        workers: num("PARTIR_SERVE_WORKERS").map(|n| n as usize).filter(|&n| n > 0),
        queue_cap: num("PARTIR_SERVE_QUEUE_CAP").map(|n| n as usize).filter(|&n| n > 0),
        cache_bytes: num("PARTIR_SERVE_CACHE_BYTES"),
    }
}

/// Parses `PARTIR_SCALING_MAX_RATIO` — the allowed
/// `wall(max ranks) / wall(1 rank)` ratio for the `fig_dist
/// --assert-scaling` CI perf gate. `None` when unset, unparsable, or not
/// a positive finite number (the harness then applies its
/// parallelism-aware default).
pub fn scaling_max_ratio_env() -> Option<f64> {
    let r: f64 = std::env::var("PARTIR_SCALING_MAX_RATIO").ok()?.trim().parse().ok()?;
    (r.is_finite() && r > 0.0).then_some(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_silent() {
        let c = ObsConfig::disabled();
        assert!(!c.trace);
        assert!(!c.metrics);
        c.apply(); // must be a no-op, not an uninstall
    }

    #[test]
    fn placement_float_list_parse_tolerates_noise() {
        // Same local-copy approach as `ranks_parse_tolerates_noise` (env is
        // process-global in the test harness).
        let parse = |v: &str| -> Vec<f64> {
            v.split(',')
                .filter_map(|p| p.trim().parse::<f64>().ok())
                .filter(|x| x.is_finite() && *x > 0.0)
                .collect()
        };
        assert_eq!(parse("3, 1, 1, 1"), vec![3.0, 1.0, 1.0, 1.0]);
        assert_eq!(parse(" 2.5 , nope, -1, 0, inf, 0.5 "), vec![2.5, 0.5]);
        assert!(parse("").is_empty());
    }

    #[test]
    fn ranks_parse_tolerates_noise() {
        // Not a from-env test (env is process-global in the test harness);
        // exercise the parse shape through a local copy of the logic.
        let parse = |v: &str| -> Vec<usize> {
            v.split(',').filter_map(|p| p.trim().parse().ok()).filter(|&n| n > 0).collect()
        };
        assert_eq!(parse("2,4,8"), vec![2, 4, 8]);
        assert_eq!(parse(" 2 , x, 0, 3 "), vec![2, 3]);
        assert!(parse("").is_empty());
    }
}
