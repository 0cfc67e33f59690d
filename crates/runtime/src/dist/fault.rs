//! Deterministic fault injection and checkpoint policy for the rank
//! backend — the distributed sibling of [`crate::fault::FaultPlan`].
//!
//! Where the threaded plan kills *task attempts*, this plan attacks the
//! *fabric and the ranks*: seeded message drops (forcing the bounded
//! retransmit path), seeded message duplication (forcing receiver-side
//! dedup), and a whole-rank crash at the top of a chosen epoch (forcing
//! detection, checkpoint restore, and survivor-side shard migration).
//! Every decision is a pure hash of the message's coordinates
//! `(seed, epoch, src, dst, kind, attempt)`, so a fault schedule replays
//! bit-identically from its seed regardless of thread interleaving.
//!
//! Checkpoint cadence comes from the same Young/Daly first-order optimum
//! the simulator prices (`sim::FailureModel`): the optimal interval is
//! `τ = sqrt(2 · C · MTBF)` for checkpoint cost `C`; translated into
//! whole epochs here since the rank backend checkpoints at epoch
//! boundaries (the only globally consistent cut the protocol has).

use crate::fault::{hash4, unit};

/// Whole-rank crash injection: the victim stops at the top of `epoch`,
/// before sending or computing anything for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankCrash {
    pub rank: usize,
    /// Epoch (loop index) at whose start the rank dies.
    pub epoch: u64,
    /// A silent crash sends no notice; peers detect it only when their
    /// epoch deadline expires. A loud crash (the default) broadcasts a
    /// crash notice, the fast detection path.
    pub silent: bool,
}

/// Deterministic, seedable description of fabric and rank faults.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistFaultPlan {
    /// Seed for the per-message hash; the whole schedule derives from it.
    pub seed: u64,
    /// Probability in `[0, 1]` that any given send *attempt* is dropped
    /// before delivery (the sender retransmits with seeded backoff).
    pub drop_rate: f64,
    /// Probability in `[0, 1]` that a delivered message is sent twice
    /// (the receiver must dedup; duplicate traffic is metered separately
    /// so strict volume accounting still balances).
    pub dup_rate: f64,
    /// Optional whole-rank crash.
    pub crash: Option<RankCrash>,
}

impl DistFaultPlan {
    /// A plan that injects nothing (useful as a base for struct update).
    pub fn quiescent(seed: u64) -> DistFaultPlan {
        DistFaultPlan { seed, drop_rate: 0.0, dup_rate: 0.0, crash: None }
    }

    /// Builds a plan from `PARTIR_DIST_FAULT_*` — parsed in exactly one
    /// place, [`partir_obs::config::dist_fault_env`] — for CI fault-matrix
    /// runs. Returns `None` when `PARTIR_DIST_FAULT_SEED` is unset. New
    /// code should pass a `DistFaultPlan` explicitly through the
    /// `partir::Partir` builder.
    pub fn from_env() -> Option<DistFaultPlan> {
        let env = partir_obs::config::dist_fault_env()?;
        Some(DistFaultPlan {
            seed: env.seed,
            drop_rate: env.drop_rate,
            dup_rate: env.dup_rate,
            crash: env.crash.map(|(rank, epoch, silent)| RankCrash { rank, epoch, silent }),
        })
    }

    /// Does this plan inject anything at all?
    pub fn is_active(&self) -> bool {
        self.drop_rate > 0.0 || self.dup_rate > 0.0 || self.crash.is_some()
    }

    /// Should `rank` crash at the top of `epoch`?
    pub fn crashes(&self, rank: usize, epoch: u64) -> Option<RankCrash> {
        self.crash.filter(|c| c.rank == rank && c.epoch == epoch)
    }

    /// Is send attempt `attempt` of the `(epoch, src, dst, kind)` message
    /// dropped in flight?
    pub fn drops(&self, epoch: u64, src: usize, dst: usize, kind: u64, attempt: u32) -> bool {
        if self.drop_rate <= 0.0 {
            return false;
        }
        let h = hash4(self.seed, hash4(epoch, src as u64, dst as u64, kind), attempt as u64, 1);
        unit(h) < self.drop_rate
    }

    /// Is the delivered `(epoch, src, dst, kind)` message sent a second
    /// time?
    pub fn duplicates(&self, epoch: u64, src: usize, dst: usize, kind: u64) -> bool {
        if self.dup_rate <= 0.0 {
            return false;
        }
        let h = hash4(self.seed, hash4(epoch, src as u64, dst as u64, kind), 0, 2);
        unit(h) < self.dup_rate
    }

    /// Seeded retransmit backoff for attempt `attempt`, in microseconds:
    /// linear in the attempt number with a hashed jitter so retransmit
    /// storms from different ranks decorrelate deterministically.
    pub fn backoff_us(&self, epoch: u64, src: usize, dst: usize, attempt: u32) -> u64 {
        let jitter =
            hash4(self.seed, epoch, hash4(src as u64, dst as u64, 0, 3), attempt as u64) % 40;
        (attempt as u64) * 20 + jitter
    }
}

/// Retransmit bound: a message dropped this many times in a row makes the
/// sender declare the pair dead (`DistError::RankLost`). At drop rate
/// `p < 1` the chance of a spurious declaration is `p^24` — negligible
/// for any rate the chaos matrix uses.
pub const MAX_SEND_ATTEMPTS: u32 = 24;

/// When to snapshot each rank's owned shard, in whole epochs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// A checkpoint is taken after every `interval_epochs`-th epoch
    /// completes (and the store restore point advances with it).
    pub interval_epochs: u64,
}

impl CheckpointPolicy {
    /// Checkpoint after every `n` epochs (`n ≥ 1`).
    pub fn every(n: u64) -> CheckpointPolicy {
        CheckpointPolicy { interval_epochs: n.max(1) }
    }

    /// `PARTIR_DIST_CHECKPOINT_INTERVAL` default, parsed by
    /// [`partir_obs::config::dist_checkpoint_interval_env`].
    pub fn from_env() -> Option<CheckpointPolicy> {
        partir_obs::config::dist_checkpoint_interval_env().map(CheckpointPolicy::every)
    }

    /// The Young/Daly first-order optimum, `τ = sqrt(2 · C · MTBF)`,
    /// rounded to whole epochs of `epoch_cost_s` seconds each — the same
    /// formula the simulator's `FailureModel` prices. Degenerate inputs
    /// (zero epoch cost, zero MTBF) clamp to a 1-epoch interval.
    pub fn young_daly(epoch_cost_s: f64, checkpoint_cost_s: f64, mtbf_s: f64) -> CheckpointPolicy {
        let tau = (2.0 * checkpoint_cost_s * mtbf_s).sqrt();
        let epochs = if epoch_cost_s > 0.0 && tau.is_finite() {
            (tau / epoch_cost_s).round() as u64
        } else {
            1
        };
        CheckpointPolicy::every(epochs)
    }

    /// Is a checkpoint due after epoch `epoch` completes?
    pub fn due(&self, epoch: u64) -> bool {
        (epoch + 1).is_multiple_of(self.interval_epochs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiescent_plan_injects_nothing() {
        let plan = DistFaultPlan::quiescent(42);
        assert!(!plan.is_active());
        for e in 0..8u64 {
            for s in 0..4 {
                for d in 0..4 {
                    assert!(!plan.drops(e, s, d, 0, 0));
                    assert!(!plan.duplicates(e, s, d, 0));
                }
            }
        }
        assert_eq!(plan.crashes(0, 0), None);
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = DistFaultPlan { drop_rate: 0.5, dup_rate: 0.5, ..DistFaultPlan::quiescent(1) };
        let b = DistFaultPlan { seed: 2, ..a };
        let schedule =
            |p: &DistFaultPlan| (0..256u64).map(|e| p.drops(e, 0, 1, 0, 0)).collect::<Vec<_>>();
        assert_eq!(schedule(&a), schedule(&a), "pure function of coordinates");
        assert_ne!(schedule(&a), schedule(&b), "seed changes the schedule");
    }

    #[test]
    fn drop_rate_is_roughly_respected() {
        let plan = DistFaultPlan { drop_rate: 0.25, ..DistFaultPlan::quiescent(99) };
        let fired = (0..4096u64).filter(|&e| plan.drops(e, 0, 1, 0, 0)).count();
        let frac = fired as f64 / 4096.0;
        assert!((frac - 0.25).abs() < 0.05, "observed drop rate {frac}");
    }

    #[test]
    fn crash_matches_only_its_coordinates() {
        let crash = RankCrash { rank: 2, epoch: 3, silent: false };
        let plan = DistFaultPlan { crash: Some(crash), ..DistFaultPlan::quiescent(7) };
        assert!(plan.is_active());
        assert_eq!(plan.crashes(2, 3), Some(crash));
        assert_eq!(plan.crashes(2, 4), None);
        assert_eq!(plan.crashes(1, 3), None);
    }

    #[test]
    fn backoff_grows_with_attempt_and_stays_bounded() {
        let plan = DistFaultPlan::quiescent(11);
        let b1 = plan.backoff_us(0, 0, 1, 1);
        let b8 = plan.backoff_us(0, 0, 1, 8);
        assert!(b1 < 20 + 40);
        assert!((160..160 + 40).contains(&b8), "linear base with bounded jitter: {b8}");
    }

    #[test]
    fn young_daly_interval_follows_the_formula() {
        // C = 2s, MTBF = 100s → τ = 20s; 4s epochs → 5-epoch interval.
        let p = CheckpointPolicy::young_daly(4.0, 2.0, 100.0);
        assert_eq!(p.interval_epochs, 5);
        assert!(p.due(4) && !p.due(3), "due after the 5th epoch completes");
        // Degenerate inputs clamp to every epoch.
        assert_eq!(CheckpointPolicy::young_daly(0.0, 2.0, 100.0).interval_epochs, 1);
        assert_eq!(CheckpointPolicy::young_daly(4.0, 0.0, 100.0).interval_epochs, 1);
    }
}
