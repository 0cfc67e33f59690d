//! Deterministic fault injection, recovery and checkpoint policy — the one
//! fault plane of the driver.
//!
//! Long-running distributed executions lose nodes; the paper's target
//! (Legion on a production cluster) treats task failure as routine. A
//! seeded [`FaultPlan`] decides — as a pure hash of the coordinates of the
//! thing it attacks — what fails, so every failure schedule replays
//! bit-identically from its seed regardless of thread interleaving. One
//! plan names three kinds of fault. Task attempts fail on every rank;
//! the fabric and whole ranks only where there are peers (sharded ranks —
//! `partir::Run` rejects them on the threads backend, one rank in place):
//!
//! * **task attempts** (`(seed, loop, color, attempt)`): a *clean kill*
//!   stops the task mid-loop after a deterministic number of iterations,
//!   leaving partial effects behind (the driver rolls them back from a
//!   pre-attempt snapshot); a *poison* additionally panics inside the task
//!   body, exercising the `catch_unwind` isolation barrier. A killed
//!   attempt is retried at once, at most [`MAX_TASK_RETRIES`] times; a
//!   color that runs out of retries re-runs sequentially on its rank's
//!   thread, and `DistReport::degraded` records that the slow path ran.
//!   This is the recovery level below a rank crash.
//! * **the fabric** (rank backend, `(seed, epoch, src, dst, kind,
//!   attempt)`): seeded message drops force the bounded retransmit path
//!   ([`MAX_SEND_ATTEMPTS`]), seeded duplication forces receiver-side
//!   dedup, and [`FaultPlan::chaos`] shuffles each mailbox's delivery
//!   order.
//! * **a whole rank** (rank backend, [`RankCrash`]): the victim stops at
//!   the top of a chosen epoch, forcing detection, checkpoint restore
//!   ([`CheckpointPolicy`]) and survivor-side shard migration.
//!
//! Nothing sleeps to recover: a retry or a retransmit follows its failure
//! at once, because waiting would change the wall time and no decision.
//! Results are always bit-identical to the sequential interpreter, merely
//! slower.
//!
//! Checkpoint cadence comes from the same Young/Daly first-order optimum
//! the Figure 14 simulator prices (`FailureModel` in `partir-apps`): the
//! optimal interval is `τ = sqrt(2 · C · MTBF)` for checkpoint cost `C`;
//! translated into whole epochs here since the rank backend checkpoints at
//! epoch boundaries (the only globally consistent cut the protocol has).

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

/// Deterministic, seedable description of what fails: task attempts, the
/// fabric, a rank. It is the only fault value a run takes.
///
/// Decisions are pure functions of the seed and the coordinates, so they
/// do not depend on thread scheduling: replaying with the same plan yields
/// the same injected-fault schedule, the same retry and retransmit counts,
/// and the same final stores.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for every decision hash; the whole schedule derives from it.
    pub seed: u64,
    /// Probability in `[0, 1]` that any given task *attempt* is killed.
    /// `1.0` kills every attempt (recovery then handles every task).
    pub task_failure_rate: f64,
    /// Cumulative task ordinal (loop-major, color-minor, independent of
    /// scheduling) at and after which injected failures poison the worker
    /// with a panic instead of dying cleanly. `None` means clean kills
    /// only.
    pub poison_after: Option<u64>,
    /// Probability in `[0, 1]` that any given send *attempt* is dropped
    /// before delivery (the sender retransmits at once).
    pub drop_rate: f64,
    /// Probability in `[0, 1]` that a delivered message is sent twice
    /// (the receiver drops the copy unmetered, so strict volume accounting
    /// still balances).
    pub dup_rate: f64,
    /// Every mailbox shuffles its delivery order among ready messages and
    /// injects tiny receive-side delays, from its rank's stream of `seed`
    /// ([`FaultPlan::chaos_stream`]): an adversarially slow fabric, under
    /// which results must stay bit-identical.
    pub chaos: bool,
    /// Optional whole-rank crash.
    pub crash: Option<RankCrash>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a base for struct update).
    pub fn quiescent(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            task_failure_rate: 0.0,
            poison_after: None,
            drop_rate: 0.0,
            dup_rate: 0.0,
            chaos: false,
            crash: None,
        }
    }

    /// Does this plan kill task attempts?
    pub fn attacks_tasks(&self) -> bool {
        self.task_failure_rate > 0.0
    }

    /// Does this plan drop, duplicate or reorder messages or crash a rank
    /// (injectable on sharded ranks only)?
    pub fn attacks_ranks(&self) -> bool {
        self.drop_rate > 0.0 || self.dup_rate > 0.0 || self.chaos || self.crash.is_some()
    }

    /// Decides the fate of one task attempt. `ordinal` is the cumulative
    /// task ordinal used by [`FaultPlan::poison_after`]; `n_iters` is the
    /// size of the task's iteration subregion. A returned fault always
    /// kills the attempt strictly before it completes (`survive_iters <
    /// n_iters`).
    pub fn decide(
        &self,
        loop_index: u64,
        color: u64,
        attempt: u32,
        ordinal: u64,
        n_iters: u64,
    ) -> Option<InjectedFault> {
        if self.task_failure_rate <= 0.0 {
            return None;
        }
        let h = hash4(self.seed, loop_index, color, attempt as u64);
        if unit(h) >= self.task_failure_rate {
            return None;
        }
        let survive_iters =
            if n_iters == 0 { 0 } else { hash4(h, loop_index, color, attempt as u64) % n_iters };
        Some(InjectedFault {
            poison: self.poison_after.is_some_and(|t| ordinal >= t),
            survive_iters,
        })
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

    /// The seed of `rank`'s delivery-order chaos, when the plan asks for
    /// chaos: one decorrelated stream per rank.
    pub fn chaos_stream(&self, rank: usize) -> Option<u64> {
        self.chaos.then(|| self.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// One decided fault: how far the attempt runs and how it dies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectedFault {
    /// Die by panicking (exercises `catch_unwind` isolation) instead of
    /// stopping cleanly.
    pub poison: bool,
    /// Iterations of the subregion executed before the attempt dies.
    pub survive_iters: u64,
}

/// Marker payload for injected poison panics, so the executor can tell an
/// injected failure (retryable) from a genuine bug (fatal).
pub struct InjectedPanic;

/// Re-attempts of a killed task attempt, each at once. A color that is
/// killed this many times more re-runs sequentially on its rank's thread.
pub const MAX_TASK_RETRIES: u32 = 2;

/// splitmix64-style finalizer: the standard 64-bit avalanche mix.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes four coordinates into one well-mixed word: the decision hash.
#[inline]
pub(crate) fn hash4(a: u64, b: u64, c: u64, d: u64) -> u64 {
    mix(mix(mix(mix(a) ^ b) ^ c) ^ d)
}

/// 53 uniform bits → a unit float in `[0, 1)`, compared against a rate.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
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
    fn zero_rate_never_fires() {
        let plan = FaultPlan::quiescent(42);
        for li in 0..8 {
            for c in 0..64 {
                assert_eq!(plan.decide(li, c, 0, c, 100), None);
            }
        }
    }

    #[test]
    fn unit_rate_always_fires_and_dies_mid_loop() {
        let plan = FaultPlan { task_failure_rate: 1.0, ..FaultPlan::quiescent(7) };
        for c in 0..64 {
            let f = plan.decide(0, c, 0, c, 10).expect("rate 1.0 fires");
            assert!(f.survive_iters < 10);
            assert!(!f.poison);
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan {
            task_failure_rate: 0.5,
            poison_after: Some(3),
            ..FaultPlan::quiescent(1234)
        };
        for li in 0..4 {
            for c in 0..32 {
                for attempt in 0..3 {
                    let a = plan.decide(li, c, attempt, li * 32 + c, 17);
                    let b = plan.decide(li, c, attempt, li * 32 + c, 17);
                    assert_eq!(a, b);
                }
            }
        }
    }

    #[test]
    fn seed_changes_schedule() {
        let a = FaultPlan { task_failure_rate: 0.5, ..FaultPlan::quiescent(1) };
        let b = FaultPlan { task_failure_rate: 0.5, ..FaultPlan::quiescent(2) };
        let fire = |p: &FaultPlan| {
            (0..256).filter(|&c| p.decide(0, c, 0, c, 8).is_some()).collect::<Vec<_>>()
        };
        assert_ne!(fire(&a), fire(&b));
    }

    #[test]
    fn rate_is_roughly_respected() {
        let plan = FaultPlan { task_failure_rate: 0.25, ..FaultPlan::quiescent(99) };
        let fired = (0..4096).filter(|&c| plan.decide(0, c, 0, c, 8).is_some()).count();
        let frac = fired as f64 / 4096.0;
        assert!((frac - 0.25).abs() < 0.05, "observed failure rate {frac}");
    }

    #[test]
    fn poison_after_thresholds_on_ordinal() {
        let plan =
            FaultPlan { task_failure_rate: 1.0, poison_after: Some(10), ..FaultPlan::quiescent(5) };
        assert!(!plan.decide(0, 0, 0, 9, 4).unwrap().poison);
        assert!(plan.decide(0, 0, 0, 10, 4).unwrap().poison);
        assert!(plan.decide(0, 0, 0, 11, 4).unwrap().poison);
    }

    #[test]
    fn quiescent_plan_injects_nothing() {
        let plan = FaultPlan::quiescent(42);
        assert!(!plan.attacks_ranks() && !plan.attacks_tasks());
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
        let a = FaultPlan { drop_rate: 0.5, dup_rate: 0.5, ..FaultPlan::quiescent(1) };
        let b = FaultPlan { seed: 2, ..a };
        let schedule =
            |p: &FaultPlan| (0..256u64).map(|e| p.drops(e, 0, 1, 0, 0)).collect::<Vec<_>>();
        assert_eq!(schedule(&a), schedule(&a), "pure function of coordinates");
        assert_ne!(schedule(&a), schedule(&b), "seed changes the schedule");
    }

    #[test]
    fn drop_rate_is_roughly_respected() {
        let plan = FaultPlan { drop_rate: 0.25, ..FaultPlan::quiescent(99) };
        let fired = (0..4096u64).filter(|&e| plan.drops(e, 0, 1, 0, 0)).count();
        let frac = fired as f64 / 4096.0;
        assert!((frac - 0.25).abs() < 0.05, "observed drop rate {frac}");
    }

    #[test]
    fn crash_matches_only_its_coordinates() {
        let crash = RankCrash { rank: 2, epoch: 3, silent: false };
        let plan = FaultPlan { crash: Some(crash), ..FaultPlan::quiescent(7) };
        assert!(plan.attacks_ranks());
        assert_eq!(plan.crashes(2, 3), Some(crash));
        assert_eq!(plan.crashes(2, 4), None);
        assert_eq!(plan.crashes(1, 3), None);
    }

    #[test]
    fn chaos_is_a_fabric_fault_with_one_stream_per_rank() {
        let quiet = FaultPlan::quiescent(5);
        assert_eq!(quiet.chaos_stream(0), None);
        let chaos = FaultPlan { chaos: true, ..quiet };
        assert!(chaos.attacks_ranks() && !chaos.attacks_tasks());
        let streams: Vec<u64> = (0..4).map(|r| chaos.chaos_stream(r).unwrap()).collect();
        assert_eq!(streams[0], 5, "rank 0's stream is the seed itself");
        assert!(streams.windows(2).all(|w| w[0] != w[1]), "decorrelated per rank");
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
