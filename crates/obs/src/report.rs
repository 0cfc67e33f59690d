//! Versioned report schema shared by the bench harness binaries.
//!
//! Every `--json` report is an object with this envelope:
//!
//! ```json
//! {
//!   "schema": "partir-report-v1",
//!   "experiment": "table1",
//!   "created_unix_ms": 1733500000000,
//!   ...experiment-specific payload...
//! }
//! ```
//!
//! The aggregator (`partir-bench --bin report`) merges several envelopes
//! into `BENCH_partir.json` so perf trajectories diff across PRs.

use crate::json::Json;
use std::time::{SystemTime, UNIX_EPOCH};

/// Current schema identifier. Bump the suffix on breaking changes.
pub const SCHEMA_VERSION: &str = "partir-report-v1";

/// Starts a report envelope for the named experiment. `created_unix_ms`
/// is the current time unless `PARTIR_REPORT_EPOCH` pins it (so CI can
/// diff reports byte-for-byte across runs).
pub fn envelope(experiment: &str) -> Json {
    let now_ms = crate::config::report_epoch_env().unwrap_or_else(|| {
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
    });
    Json::object()
        .with("schema", SCHEMA_VERSION)
        .with("experiment", experiment)
        .with("created_unix_ms", now_ms)
}

/// Checks that a parsed value is a report envelope; returns its experiment
/// name.
pub fn validate_envelope(j: &Json) -> Result<&str, String> {
    match j.get("schema").and_then(Json::as_str) {
        Some(SCHEMA_VERSION) => {}
        Some(other) => return Err(format!("unknown report schema '{other}'")),
        None => return Err("missing 'schema' field".into()),
    }
    j.get("experiment").and_then(Json::as_str).ok_or_else(|| "missing 'experiment' field".into())
}

/// Serializes a `Duration`-like nanosecond count as fractional milliseconds
/// (the unit Table 1 uses).
pub fn ns_to_ms(ns: u128) -> f64 {
    ns as f64 / 1.0e6
}

/// Registry of the stable error-code strings the unified `partir::Error`
/// emits (its `error_code()` method and the `"error_code"` field of
/// failure reports). Codes are part of the `partir-report-v1` contract:
/// renaming one is a schema break, adding one is not.
pub const ERROR_CODES: &[&str] = &[
    // pipeline (`partir-core`)
    "auto.not_parallelizable",
    "auto.unsatisfiable",
    "solve.unsatisfiable",
    "exchange.no_ranks",
    "exchange.width_mismatch",
    "exchange.bad_assignment",
    // the driver (`partir-runtime::dist`), on either backend
    "dist.plan_mismatch",
    "dist.partition_index_out_of_bounds",
    "dist.partition_width_mismatch",
    "dist.partition_exceeds_region",
    "dist.incomplete_iteration",
    "dist.iteration_not_disjoint",
    "dist.reduction_not_disjoint",
    "dist.variable_out_of_scope",
    "dist.legality",
    "dist.plan_illegal",
    "dist.rank_panic",
    "dist.disconnected",
    "dist.aborted",
    "dist.internal",
    "dist.volume_mismatch",
    "dist.rank_lost",
    // builder
    "session.invalid",
    // serving layer (`partir::serve`)
    "serve.over_budget",
    "serve.queue_full",
    "serve.disconnected",
    // plan cache (`partir-core::cache`)
    "cache.poisoned",
];

/// Is `code` a registered `partir-report-v1` error code?
pub fn is_known_error_code(code: &str) -> bool {
    ERROR_CODES.contains(&code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_validates() {
        let e = envelope("table1").with("rows", Json::array());
        let text = e.to_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(validate_envelope(&parsed).unwrap(), "table1");
    }

    #[test]
    fn bad_envelopes_rejected() {
        let wrong = Json::object().with("schema", "partir-report-v0").with("experiment", "x");
        assert!(validate_envelope(&wrong).is_err());
        let missing = Json::object().with("experiment", "x");
        assert!(validate_envelope(&missing).is_err());
    }
}
