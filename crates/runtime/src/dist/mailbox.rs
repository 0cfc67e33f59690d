//! In-process rank mailboxes.
//!
//! One mailbox pair per rank: a single receiver owned by the rank's thread
//! and one sender endpoint cloned into every peer. Messages are tagged with
//! the loop epoch so a fast rank may run ahead and push next-epoch ghosts
//! while a slow peer is still draining the current epoch — early messages
//! are stashed and replayed in order. Receives poll with a short timeout
//! against a shared abort flag so one failing rank cannot deadlock the
//! rest of the fleet.

use crate::fault::hash4;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a message carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgKind {
    /// Pre-loop ghost values: owner-fresh copies of `needed − owned`.
    Ghost,
    /// Post-loop traffic: in-place write-backs plus partial-reduction
    /// buffer slices, coalesced into one message per `(src, dst)` pair.
    Post,
    /// A crash notice: the sender is dying at the start of `epoch` and
    /// will produce no further traffic (the loud-crash detection path).
    Crash,
}

impl MsgKind {
    /// Stable numeric tag, used as a fault-plan hash coordinate.
    pub fn tag(self) -> u64 {
        match self {
            MsgKind::Ghost => 0,
            MsgKind::Post => 1,
            MsgKind::Crash => 2,
        }
    }
}

/// One coalesced inter-rank message. Both sides derive the exact layout of
/// `values` from the shared [`partir_core::exchange::ExchangePlan`], so
/// only raw f64 payloads travel — no per-message set descriptions.
#[derive(Clone, Debug)]
pub struct Msg {
    pub epoch: u64,
    pub src: usize,
    pub kind: MsgKind,
    /// Field payloads in plan order; for `Post`, write-back values first,
    /// then partial-buffer slices in (route-major, color-minor) order.
    pub values: Vec<f64>,
    /// For `Post`: one flag per routed (route, color) slice destined to the
    /// receiver — `false` means the color never contributed to that buffer
    /// and the receiver must skip its merge (as a run in place skips
    /// unallocated buffers entirely).
    pub partials_present: Vec<bool>,
}

/// Receive failure.
#[derive(Debug)]
pub enum MailboxError {
    /// Another rank aborted the run (its error is reported separately).
    Aborted,
    /// A peer hung up without sending (it panicked before aborting).
    Disconnected,
    /// A crash notice arrived: `rank` announced it is dying and will send
    /// nothing further.
    Lost { rank: usize },
    /// The epoch deadline expired with messages still outstanding — the
    /// silent-crash detection path (the caller knows which sources it was
    /// still waiting on and names the suspect).
    Deadline,
}

/// The receiving half of one rank's mailbox. Meters arriving traffic per
/// source rank — the *measured* side of the predicted-vs-measured
/// communication accounting.
pub struct Mailbox {
    rx: Receiver<Msg>,
    pending: Vec<Msg>,
    abort: Arc<AtomicBool>,
    /// Per source rank: `(bytes, messages)` pulled off the channel —
    /// protocol traffic only. Duplicate deliveries and crash notices are
    /// not metered, so this meter stays comparable to
    /// `ExchangePlan::predicted_pair_volume` even under fault injection.
    meter: Vec<(u64, u64)>,
    /// `(epoch, kind, src)` triples already delivered; the epoch protocol
    /// sends at most one message per triple, so a repeat is an injected
    /// (or fabric-level) duplicate and is dropped.
    seen: HashSet<(u64, u64, usize)>,
    /// Delivery-order chaos for tests, `(stream, draws so far)`: each draw
    /// is the fault plane's decision hash of the rank's stream
    /// ([`crate::fault::FaultPlan::chaos_stream`]) and the draw's number.
    /// It picks among equally-ready stashed messages and injects tiny
    /// receive-side delays, simulating an adversarially slow fabric;
    /// results must stay bit-identical under any schedule it produces.
    chaos: Option<(u64, u64)>,
    /// Maximum time one `recv_any` call may wait before declaring the
    /// outstanding sources suspect (`MailboxError::Deadline`). `None`
    /// waits forever (the fault-free default — a stall is then a bug the
    /// abort flag surfaces, not a crash to recover from).
    deadline: Option<Duration>,
}

impl Mailbox {
    pub fn new(rx: Receiver<Msg>, abort: Arc<AtomicBool>, n_ranks: usize) -> Self {
        Mailbox {
            rx,
            pending: Vec::new(),
            abort,
            meter: vec![(0, 0); n_ranks],
            seen: HashSet::new(),
            chaos: None,
            deadline: None,
        }
    }

    /// Enables deterministic delivery-order shuffling, drawn from `seed`.
    pub fn set_chaos(&mut self, seed: u64) {
        self.chaos = Some((seed, 0));
    }

    /// The next chaos draw, when chaos is on.
    fn chaos_draw(&mut self) -> Option<u64> {
        let (stream, draws) = self.chaos.as_mut()?;
        *draws += 1;
        Some(hash4(*stream, *draws, 0, 3))
    }

    /// Arms the epoch-deadline detector: a `recv_any` that waits longer
    /// than `d` returns [`MailboxError::Deadline`].
    pub fn set_deadline(&mut self, d: Duration) {
        self.deadline = Some(d);
    }

    /// Meters a message as it comes off the channel (stashed traffic is
    /// counted once, at arrival — not again on replay).
    fn note(&mut self, m: &Msg) {
        if let Some(cell) = self.meter.get_mut(m.src) {
            cell.0 += m.values.len() as u64 * 8;
            cell.1 += 1;
        }
    }

    /// Measured `(bytes, messages)` received so far, indexed by source rank.
    pub fn measured(&self) -> &[(u64, u64)] {
        &self.meter
    }

    /// Blocks until *some* message of `epoch` and `kind` from one of the
    /// `wanted` sources arrives, in arrival order — whichever peer's
    /// traffic lands first is installed first, so one slow peer never
    /// stalls the halos of the fast ones. The matched source is removed
    /// from `wanted`. Under chaos, ties among already-stashed matches are
    /// broken pseudo-randomly and small delays are injected.
    pub fn recv_any(
        &mut self,
        epoch: u64,
        kind: MsgKind,
        wanted: &mut Vec<usize>,
    ) -> Result<Msg, MailboxError> {
        let started = Instant::now();
        loop {
            let matches: Vec<usize> = self
                .pending
                .iter()
                .enumerate()
                .filter(|(_, m)| m.epoch == epoch && m.kind == kind && wanted.contains(&m.src))
                .map(|(i, _)| i)
                .collect();
            if !matches.is_empty() {
                let pick = match self.chaos_draw() {
                    Some(h) => matches[h as usize % matches.len()],
                    None => matches[0],
                };
                let m = self.pending.swap_remove(pick);
                wanted.retain(|&s| s != m.src);
                return Ok(m);
            }
            if self.abort.load(Ordering::Relaxed) {
                return Err(MailboxError::Aborted);
            }
            if self.deadline.is_some_and(|d| started.elapsed() >= d) {
                return Err(MailboxError::Deadline);
            }
            if let Some(us) = self.chaos_draw().map(|h| h % 120) {
                if us >= 40 {
                    std::thread::sleep(Duration::from_micros(us));
                }
            }
            match self.rx.recv_timeout(Duration::from_millis(10)) {
                Ok(m) => {
                    if m.kind == MsgKind::Crash {
                        return Err(MailboxError::Lost { rank: m.src });
                    }
                    if self.seen.insert((m.epoch, m.kind.tag(), m.src)) {
                        self.note(&m);
                        self.pending.push(m);
                    }
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    return if self.abort.load(Ordering::Relaxed) {
                        Err(MailboxError::Aborted)
                    } else {
                        Err(MailboxError::Disconnected)
                    };
                }
            }
        }
    }

    /// Blocks until the message of `(epoch, kind, src)` arrives, stashing
    /// any other traffic that lands first.
    #[cfg(test)]
    pub fn recv_from(
        &mut self,
        epoch: u64,
        kind: MsgKind,
        src: usize,
    ) -> Result<Msg, MailboxError> {
        let mut wanted = vec![src];
        self.recv_any(epoch, kind, &mut wanted)
    }
}

/// Builds the full mailbox fabric: per-rank receivers plus a dense sender
/// matrix (`senders[dst]` delivers to rank `dst`).
pub fn build_fabric(n_ranks: usize, abort: &Arc<AtomicBool>) -> (Vec<Sender<Msg>>, Vec<Mailbox>) {
    let mut senders = Vec::with_capacity(n_ranks);
    let mut boxes = Vec::with_capacity(n_ranks);
    for _ in 0..n_ranks {
        let (tx, rx) = std::sync::mpsc::channel();
        senders.push(tx);
        boxes.push(Mailbox::new(rx, Arc::clone(abort), n_ranks));
    }
    (senders, boxes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_order_epochs_are_stashed_and_replayed() {
        let abort = Arc::new(AtomicBool::new(false));
        let (senders, mut boxes) = build_fabric(2, &abort);
        // Rank 1 runs ahead: epoch-1 ghost lands before epoch-0 post.
        senders[0]
            .send(Msg {
                epoch: 1,
                src: 1,
                kind: MsgKind::Ghost,
                values: vec![2.0],
                partials_present: vec![],
            })
            .unwrap();
        senders[0]
            .send(Msg {
                epoch: 0,
                src: 1,
                kind: MsgKind::Post,
                values: vec![1.0],
                partials_present: vec![],
            })
            .unwrap();
        let m0 = boxes[0].recv_from(0, MsgKind::Post, 1).unwrap();
        assert_eq!(m0.values, vec![1.0]);
        let m1 = boxes[0].recv_from(1, MsgKind::Ghost, 1).unwrap();
        assert_eq!(m1.values, vec![2.0]);
        // Both messages metered once, against src 1, stash included.
        assert_eq!(boxes[0].measured(), &[(0, 0), (16, 2)]);
    }

    #[test]
    fn recv_any_returns_arrival_order_and_drains_wanted() {
        let abort = Arc::new(AtomicBool::new(false));
        let (senders, mut boxes) = build_fabric(3, &abort);
        // Rank 2's ghost lands before rank 1's: arrival order wins over
        // rank order.
        for src in [2usize, 1] {
            senders[0]
                .send(Msg {
                    epoch: 0,
                    src,
                    kind: MsgKind::Ghost,
                    values: vec![src as f64],
                    partials_present: vec![],
                })
                .unwrap();
        }
        let mut wanted = vec![1usize, 2];
        let first = boxes[0].recv_any(0, MsgKind::Ghost, &mut wanted).unwrap();
        assert_eq!(first.src, 2, "first-arrived message is returned first");
        assert_eq!(wanted, vec![1]);
        let second = boxes[0].recv_any(0, MsgKind::Ghost, &mut wanted).unwrap();
        assert_eq!(second.src, 1);
        assert!(wanted.is_empty());
    }

    #[test]
    fn recv_any_under_chaos_still_delivers_everything() {
        let abort = Arc::new(AtomicBool::new(false));
        let (senders, mut boxes) = build_fabric(4, &abort);
        boxes[0].set_chaos(0xDEAD_BEEF);
        for src in [1usize, 2, 3] {
            senders[0]
                .send(Msg {
                    epoch: 0,
                    src,
                    kind: MsgKind::Ghost,
                    values: vec![src as f64],
                    partials_present: vec![],
                })
                .unwrap();
        }
        let mut wanted = vec![1usize, 2, 3];
        let mut got = Vec::new();
        while !wanted.is_empty() {
            got.push(boxes[0].recv_any(0, MsgKind::Ghost, &mut wanted).unwrap().src);
        }
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3], "chaos shuffles order, never loses messages");
    }

    #[test]
    fn abort_breaks_the_wait() {
        let abort = Arc::new(AtomicBool::new(false));
        let (_senders, mut boxes) = build_fabric(1, &abort);
        abort.store(true, Ordering::Relaxed);
        assert!(matches!(boxes[0].recv_from(0, MsgKind::Ghost, 0), Err(MailboxError::Aborted)));
    }

    #[test]
    fn duplicate_deliveries_are_dropped_and_metered_once() {
        let abort = Arc::new(AtomicBool::new(false));
        let (senders, mut boxes) = build_fabric(2, &abort);
        for _ in 0..2 {
            senders[0]
                .send(Msg {
                    epoch: 0,
                    src: 1,
                    kind: MsgKind::Ghost,
                    values: vec![5.0],
                    partials_present: vec![],
                })
                .unwrap();
        }
        let m = boxes[0].recv_from(0, MsgKind::Ghost, 1).unwrap();
        assert_eq!(m.values, vec![5.0]);
        // Force the second copy off the channel: ask for a message that
        // never comes, with a short deadline to break the wait.
        boxes[0].set_deadline(Duration::from_millis(30));
        assert!(matches!(boxes[0].recv_from(1, MsgKind::Ghost, 1), Err(MailboxError::Deadline)));
        // The meter saw the message once; the duplicate was dropped.
        assert_eq!(boxes[0].measured(), &[(0, 0), (8, 1)]);
    }

    #[test]
    fn crash_notice_surfaces_as_lost() {
        let abort = Arc::new(AtomicBool::new(false));
        let (senders, mut boxes) = build_fabric(2, &abort);
        senders[0]
            .send(Msg {
                epoch: 3,
                src: 1,
                kind: MsgKind::Crash,
                values: vec![],
                partials_present: vec![],
            })
            .unwrap();
        match boxes[0].recv_from(3, MsgKind::Ghost, 1) {
            Err(MailboxError::Lost { rank }) => assert_eq!(rank, 1),
            other => panic!("expected Lost, got {other:?}"),
        }
        // Crash notices never touch the protocol meter.
        assert_eq!(boxes[0].measured(), &[(0, 0), (0, 0)]);
    }

    #[test]
    fn deadline_expires_only_when_armed() {
        let abort = Arc::new(AtomicBool::new(false));
        let (senders, mut boxes) = build_fabric(2, &abort);
        boxes[0].set_deadline(Duration::from_millis(25));
        let t0 = Instant::now();
        assert!(matches!(boxes[0].recv_from(0, MsgKind::Ghost, 1), Err(MailboxError::Deadline)));
        assert!(t0.elapsed() >= Duration::from_millis(25));
        // Unarmed, a wait longer than that deadline ends with the message.
        let (late, t0) = (senders[1].clone(), Instant::now());
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            let values = vec![7.0];
            late.send(Msg {
                epoch: 0,
                src: 0,
                kind: MsgKind::Ghost,
                values,
                partials_present: vec![],
            })
        });
        let got = boxes[1].recv_from(0, MsgKind::Ghost, 0);
        assert!(t0.elapsed() >= Duration::from_millis(60));
        assert_eq!(got.expect("no deadline is armed").values, vec![7.0]);
        sender.join().unwrap().unwrap();
    }
}
