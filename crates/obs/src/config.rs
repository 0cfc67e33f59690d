//! Explicit observability configuration — and the single place where
//! `PARTIR_*` environment variables are read.
//!
//! A run is configured by values: `partir::Run` carries an [`ObsConfig`]
//! and every other setting explicitly, and `Run::run` reads no environment
//! variable. Two process-level names remain, each read here and nowhere
//! else:
//!
//! | variable | meaning | read by |
//! |---|---|---|
//! | `PARTIR_TRACE` | emit span/instant events to stderr | [`ObsConfig::from_env`], once per process via [`crate::init_from_env`] |
//! | `PARTIR_REPORT_EPOCH` | fixed `created_unix_ms` for diffable reports | [`report_epoch_env`] |
//!
//! README "Configuration" lists the typed setter that replaced each
//! variable this module used to parse.

use crate::StderrSink;
use std::sync::Arc;

/// Truthy env flag: set, non-empty, and not `"0"`.
fn env_flag(name: &str) -> bool {
    matches!(std::env::var(name), Ok(v) if !v.is_empty() && v != "0")
}

/// Which observability streams are enabled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Span/instant events (phase boundaries, solver decisions).
    pub trace: bool,
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

    /// The process-level stream switch, `PARTIR_TRACE` — the only place
    /// this variable is read. `timeline` and `strict_volume` are per-run
    /// settings and stay off.
    pub fn from_env() -> Self {
        ObsConfig { trace: env_flag("PARTIR_TRACE"), ..ObsConfig::disabled() }
    }

    /// Installs the stderr line-JSON sink when tracing is on. Does
    /// nothing when it is off, and never replaces a sink that
    /// is already installed (so programmatic [`crate::install_sink`]
    /// callers — tests, report harnesses — always win). `timeline` and
    /// `strict_volume` need no sink; the rank backend gets them from the
    /// run's configuration directly.
    pub fn apply(&self) {
        if self.trace {
            crate::install_default_sink(Arc::new(StderrSink));
        }
    }
}

/// Parses `PARTIR_REPORT_EPOCH` — a fixed unix-milliseconds value for
/// report envelopes, so CI can diff reports across runs byte-for-byte.
pub fn report_epoch_env() -> Option<u64> {
    std::env::var("PARTIR_REPORT_EPOCH").ok()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_silent() {
        let c = ObsConfig::disabled();
        assert!(!c.trace);
        c.apply(); // must be a no-op, not an uninstall
    }
}
