//! Per-rank SPMD execution: the epoch protocol.
//!
//! Every rank runs the same program over its own colors, one *epoch* per
//! loop, sending and receiving what the loop's message table
//! (`LoopExchange::pairs`) lists for its row and column:
//!
//! 1. **push ghosts** — pack owner-fresh values of every `ghost` set
//!    destined to a peer and send them (one coalesced message per
//!    destination);
//! 2. **interior compute** — run the colors whose accesses stay inside the
//!    rank's owned sets, overlapping with the ghost traffic in flight;
//! 3. **pull ghosts** — receive and install every ghost message of the
//!    rank's column, in arrival order: the epoch's one wait;
//! 4. **boundary compute** — run the remaining colors, each of which reads
//!    some ghost, now that every ghost is installed;
//! 5. **post** — send in-place write-backs (installed verbatim by the
//!    owner) and partial-reduction buffer slices (with per-slice presence
//!    flags) to the owners; receive the same, then merge partials in
//!    ascending global color order, so results agree bit-for-bit with the
//!    sequential interpreter.
//!
//! Both kinds of traffic take one path through the rank's [`Port`]:
//! `send` packs one message per peer of the rank's row and hands it to the
//! fabric under the fault plan, `recv_all` takes every message of its kind
//! from the rank's column in arrival order and installs each one. Every
//! phase is charged by `charge`, the one clock: it adds the phase's
//! duration to its report counter and records the same duration as a span
//! when a timeline is attached, so each `*_ns` field is exactly the sum of
//! its spans.
//!
//! A rank without an exchange plan is the whole run in place (the threads
//! backend): every color is interior, nothing is sent, and every buffer
//! merges whole.
//!
//! Colors run through the shared chunked executor ([`crate::task`]) and the
//! attempt loop of [`super::colors`]. On a shard ([`super::RankStore`]) a
//! global index that has no slot *is* a distributed legality violation —
//! the access escaped `owned ∪ ghosts`.

use super::colors::{Buffers, Colors, RankData, TaskFaults};
use super::mailbox::{Mailbox, MailboxError, Msg, MsgKind};
use super::store::{extract_owned, pack, unpack};
use super::{AttemptSync, CheckpointStore, DistError, DistReport};
use crate::fault::{CheckpointPolicy, FaultPlan, MAX_SEND_ATTEMPTS};
use crate::task::{LoopSetup, Regs, TaskEnv};
use partir_core::exchange::{ExchangePlan, LoopExchange, PairMessages, PostMessage};
use partir_dpl::index_set::IndexSet;
use partir_dpl::region::{FieldId, Schema};
use partir_obs::trace::{RankTracer, SpanKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::time::Instant;

/// A copy of a rank's owned shard of every F64 field (a checkpoint), ready
/// to be written back into a unified store.
pub(crate) type OwnedShards = Vec<(FieldId, Vec<f64>)>;

/// What every rank of an attempt shares.
#[derive(Clone, Copy)]
pub(crate) struct RunCx<'r, 'a> {
    pub setups: &'r [LoopSetup<'a>],
    /// `None` in place: one rank that exchanges nothing.
    pub xplan: Option<&'r ExchangePlan>,
    pub schema: &'r Schema,
    /// Check every access against its partition subregion.
    pub check: bool,
    pub faults: &'r TaskFaults<'a>,
    pub ckpt: Option<(&'r CheckpointPolicy, &'r CheckpointStore)>,
    /// The epoch the attempt starts at (after a recovery, the one after
    /// the restored checkpoint).
    pub first_epoch: usize,
}

/// One rank's whole run: every loop in order, its colors on `workers`
/// workers; the storage it returns is what the driver gathers from.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rank_main<D: RankData>(
    rank: usize,
    cx: &RunCx<'_, '_>,
    sync: &AttemptSync,
    mut store: D,
    workers: usize,
    senders: &[Sender<Msg>],
    mailbox: &mut Mailbox,
    tracer: Option<RankTracer>,
) -> Result<(D, DistReport, Option<RankTracer>), DistError> {
    let env = TaskEnv {
        check: cx.check,
        rank: cx.xplan.map(|_| rank),
        abort: &sync.abort,
        violation: &sync.violation,
    };
    let fault = cx.faults.plan.as_ref();
    let mut port = Port {
        rank,
        epoch: 0,
        senders,
        mailbox,
        fault,
        abort: &sync.abort,
        stats: DistReport::default(),
        tracer,
    };
    for (li, setup) in cx.setups.iter().enumerate().skip(cx.first_epoch) {
        if sync.abort.load(Ordering::Relaxed) {
            return Err(DistError::Aborted);
        }
        // Injected whole-rank crash: die at the top of the epoch, before
        // sending or computing anything for it. The shared `lost` slot is
        // the driver's ground truth; a loud crash also broadcasts notices
        // (outside the fault plane: they are not protocol traffic) so peers
        // detect the loss without waiting out their deadline.
        if let Some(crash) = fault.and_then(|f| f.crashes(rank, li as u64)) {
            let mut slot = sync.lost.lock();
            if slot.is_none() {
                *slot = Some((rank, li as u64));
            }
            drop(slot);
            if !crash.silent {
                for (dst, tx) in senders.iter().enumerate() {
                    if dst != rank {
                        let _ = tx.send(Msg {
                            epoch: li as u64,
                            src: rank,
                            kind: MsgKind::Crash,
                            values: Vec::new(),
                            partials_present: Vec::new(),
                        });
                    }
                }
            }
            // Aborted is the "secondary casualty" error: the driver keeps
            // the peers' RankLost (or the ground-truth slot) as the cause.
            return Err(DistError::Aborted);
        }
        port.epoch = li;
        let colors = Colors::new(li, setup, &env, cx.faults);
        run_epoch(colors, cx.xplan.map(|x| &x.loops[li]), workers, &mut store, &mut port)?;
        // Checkpoint hook: snapshot the owned shard (never ghosts) after
        // every `interval_epochs`-th completed epoch.
        if let (Some((policy, ckpts)), Some(xplan)) = (cx.ckpt, cx.xplan) {
            if policy.due(li as u64) {
                let t = Instant::now();
                let shard = extract_owned(&store, xplan, rank, cx.schema);
                let bytes: u64 = shard.iter().map(|(_, v)| v.len() as u64 * 8).sum();
                ckpts.put(rank, li as u64, shard);
                port.stats.checkpoints += 1;
                port.stats.checkpoint_bytes += bytes;
                port.charge(SpanKind::Checkpoint, t, bytes, None);
            }
        }
    }
    Ok((store, port.stats, port.tracer))
}

/// One epoch of one rank: one loop, exchanging what the loop's message
/// table `lx` lists when the rank has peers.
fn run_epoch<D: RankData>(
    colors: Colors<'_, '_>,
    lx: Option<&LoopExchange>,
    workers: usize,
    store: &mut D,
    port: &mut Port<'_>,
) -> Result<(), DistError> {
    let (rank, setup) = (port.rank, colors.setup);
    // One register file per rank and epoch, not per task.
    let mut regs = Regs::new(setup);
    let all: Vec<usize>;
    let (pairs, interior, boundary) = match lx {
        Some(x) => (&x.pairs[..], &x.interior[rank], &x.boundary[rank]),
        None => {
            all = (0..setup.iter.num_subregions()).collect();
            (&[][..], &all, &Vec::new())
        }
    };

    // Phase 1: pack and push ghosts (owner-fresh loop-start values).
    port.send(MsgKind::Ghost, pairs, |pair, values| {
        pack(store, &pair.ghost, values);
        Vec::new()
    })?;

    // Phase 2: interior compute, overlapping the ghost traffic in flight.
    // Interior/halo/merge phases are charged even with no colors to run,
    // so every epoch appears on every rank's timeline.
    let t = Instant::now();
    colors.run(store, interior, workers, &mut regs);
    port.charge(SpanKind::InteriorCompute, t, 0, None);

    // Phase 3: install every ghost message in arrival order, the epoch's
    // one wait. A run stopped meanwhile still reaches `finish`, which
    // reports a task panic of this rank before the abort it caused.
    match port.recv_all(MsgKind::Ghost, pairs, |pair, msg| {
        let rest = unpack(store, &pair.ghost, &msg.values);
        debug_assert!(rest.is_empty(), "ghost message longer than its plan sets");
    }) {
        Err(DistError::Aborted) => {}
        halo => halo?,
    }

    // Phase 4: boundary compute, every halo resident.
    let t = Instant::now();
    colors.run(store, boundary, workers, &mut regs);
    port.charge(SpanKind::HaloCompute, t, 0, None);
    let (bufs, counts) = colors.finish(store, &mut regs)?;
    port.stats.add(&counts);

    // Phase 5: post traffic out — write-backs first, then the pair's
    // partial-buffer slices with presence flags.
    port.send(MsgKind::Post, pairs, |pair, values| {
        pack(store, &pair.post.write_back, values);
        pack_slices(&pair.post, setup, &bufs, values)
    })?;

    // Phase 6: receive post traffic in arrival order — install write-backs
    // verbatim (disjoint per source, so order is immaterial), stash the
    // partial slices that came with values; the merge below sorts them
    // into the deterministic order.
    let mut partials: Vec<Partial<'_>> = Vec::new();
    port.recv_all(MsgKind::Post, pairs, |pair, msg| {
        let vals = unpack(store, &pair.post.write_back, &msg.values);
        unpack_slices(&pair.post, &msg.partials_present, vals, &mut partials);
    })?;

    // Owner merge of partial reductions: buffer order, ascending
    // *global* color order, skipping colors whose buffer was never
    // allocated — restricted to the elements this rank owns. The slices
    // of a sharded rank's own colors sit on the self pair and take the
    // same pack/unpack path, minus the mailbox; in place, every buffer
    // merges whole.
    let t = Instant::now();
    match pairs.get(rank) {
        Some(own) => {
            let own = &own[rank].post;
            let mut own_values = Vec::new();
            let own_flags = pack_slices(own, setup, &bufs, &mut own_values);
            unpack_slices(own, &own_flags, &own_values, &mut partials);
        }
        None => {
            for (route, per_color) in bufs.into_iter().enumerate() {
                let sets = &setup.buffers[route].sets;
                for (color, buf) in per_color.into_iter().enumerate() {
                    partials.extend(buf.map(|vals| (route, color, &sets[color], vals)));
                }
            }
        }
    }
    partials.sort_by_key(|&(route, color, ..)| (route, color));
    for (route, _, set, vals) in partials {
        let (field, op) = (setup.buffers[route].field, setup.buffers[route].op);
        for (i, v) in set.iter().zip(vals) {
            let cur = store.read_f64(field, i).expect("owner merge target is resident");
            store.write_f64(field, i, op.apply(cur, v));
        }
    }
    port.charge(SpanKind::Merge, t, 0, None);
    Ok(())
}

/// A rank's end of the fabric and its phase clock: every phase of an
/// epoch sends through it, receives from it and is charged to it.
struct Port<'p> {
    rank: usize,
    /// The epoch in progress.
    epoch: usize,
    senders: &'p [Sender<Msg>],
    mailbox: &'p mut Mailbox,
    fault: Option<&'p FaultPlan>,
    abort: &'p AtomicBool,
    /// The rank's share of the run's report.
    stats: DistReport,
    tracer: Option<RankTracer>,
}

impl Port<'_> {
    /// Charges the phase that began at `t` to its report counter and, when
    /// a timeline is attached, records it as a span of the same duration.
    fn charge(&mut self, kind: SpanKind, t: Instant, bytes: u64, peer: Option<usize>) {
        let d = t.elapsed().as_nanos() as u64;
        let s = &mut self.stats;
        match kind {
            SpanKind::Pack | SpanKind::Send => s.pack_ns += d,
            SpanKind::RecvWait => s.exchange_wait_ns += d,
            SpanKind::Unpack => s.unpack_ns += d,
            SpanKind::InteriorCompute | SpanKind::HaloCompute => s.compute_ns += d,
            SpanKind::Merge => s.merge_ns += d,
            SpanKind::Checkpoint => s.checkpoint_ns += d,
            // Driver-side phases, charged by the driver.
            SpanKind::Legality | SpanKind::Recovery => {}
        }
        if let Some(tr) = &mut self.tracer {
            tr.record(kind, self.epoch, t, d, bytes, peer);
        }
    }

    /// Sends one `kind` message to each peer whose pair in this rank's row
    /// of `pairs` has traffic of that kind; `payload` fills its values and
    /// returns its presence flags. Under the fault plan, seeded
    /// in-flight drops make the sender retransmit at once (bounded by
    /// [`MAX_SEND_ATTEMPTS`], after which the destination is declared
    /// lost), and seeded duplication sends a second copy the
    /// receiver must dedup. Dropped attempts never cross the channel, so
    /// the receiver's protocol meter stays comparable to the plan's
    /// predicted volume; duplicates are dropped on arrival, unmetered.
    fn send(
        &mut self,
        kind: MsgKind,
        pairs: &[Vec<PairMessages>],
        mut payload: impl FnMut(&PairMessages, &mut Vec<f64>) -> Vec<bool>,
    ) -> Result<(), DistError> {
        let (rank, epoch, senders, abort) =
            (self.rank, self.epoch as u64, self.senders, self.abort);
        for (dst, pair) in pairs.get(rank).into_iter().flatten().enumerate() {
            if dst == rank || !carries(pair, kind) {
                continue;
            }
            let t = Instant::now();
            let mut values = Vec::new();
            let partials_present = payload(pair, &mut values);
            let bytes = values.len() as u64 * 8;
            self.charge(SpanKind::Pack, t, bytes, Some(dst));
            self.stats.bytes_sent += bytes;
            self.stats.messages += 1;
            let t = Instant::now();
            let msg = Msg { epoch, src: rank, kind, values, partials_present };
            let push = |msg| {
                senders[dst].send(msg).map_err(|_| match abort.load(Ordering::Relaxed) {
                    true => DistError::Aborted,
                    false => DistError::Disconnected { rank: dst },
                })
            };
            let mut attempt = 0u32;
            while self.fault.is_some_and(|f| f.drops(epoch, rank, dst, kind.tag(), attempt)) {
                self.stats.retransmits += 1;
                attempt += 1;
                if attempt >= MAX_SEND_ATTEMPTS {
                    return Err(DistError::RankLost { rank: dst, epoch });
                }
                if abort.load(Ordering::Relaxed) {
                    return Err(DistError::Aborted);
                }
            }
            if self.fault.is_some_and(|f| f.duplicates(epoch, rank, dst, kind.tag())) {
                self.stats.duplicates += 1;
                // The real copy goes first: the receiver always waits for
                // the first arrival, so this send cannot race with its
                // shutdown. The trailing duplicate can — a receiver that
                // already got everything it wanted may exit before the
                // extra copy lands, so a closed channel there is a benign
                // shutdown race, not a lost rank.
                push(msg.clone())?;
                let _ = push(msg);
            } else {
                push(msg)?;
            }
            self.charge(SpanKind::Send, t, bytes, Some(dst));
        }
        Ok(())
    }

    /// Receives the `kind` message of every peer whose pair in this rank's
    /// column of `pairs` has traffic of that kind, in arrival order, and
    /// installs each with `install`, given its pair; charges every wait
    /// and install. A deadline expiry names the first source still
    /// awaited — the rank whose traffic never came, the silent-crash
    /// detection heuristic.
    fn recv_all<'x>(
        &mut self,
        kind: MsgKind,
        pairs: &'x [Vec<PairMessages>],
        mut install: impl FnMut(&'x PairMessages, &Msg),
    ) -> Result<(), DistError> {
        let (rank, epoch) = (self.rank, self.epoch as u64);
        let mut wanted: Vec<usize> = (0..pairs.len())
            .filter(|&src| src != rank && carries(&pairs[src][rank], kind))
            .collect();
        while !wanted.is_empty() {
            let t = Instant::now();
            let msg = self.mailbox.recv_any(epoch, kind, &mut wanted).map_err(|e| {
                let suspect = wanted.first().copied().unwrap_or(rank);
                match e {
                    MailboxError::Aborted => DistError::Aborted,
                    MailboxError::Disconnected => DistError::Disconnected { rank: suspect },
                    MailboxError::Lost { rank } => DistError::RankLost { rank, epoch },
                    MailboxError::Deadline => DistError::RankLost { rank: suspect, epoch },
                }
            })?;
            let bytes = msg.values.len() as u64 * 8;
            self.charge(SpanKind::RecvWait, t, bytes, Some(msg.src));
            let t = Instant::now();
            install(&pairs[msg.src][rank], &msg);
            self.charge(SpanKind::Unpack, t, bytes, Some(msg.src));
        }
        Ok(())
    }
}

/// Does `pair` have `kind` traffic? An empty message is not sent.
fn carries(pair: &PairMessages, kind: MsgKind) -> bool {
    match kind {
        MsgKind::Ghost => !pair.ghost.is_empty(),
        MsgKind::Post => !pair.post.is_empty(),
        MsgKind::Crash => false,
    }
}

/// A partial-buffer slice that arrived with values: `(route, color, the
/// elements, one value each)`.
type Partial<'a> = (usize, usize, &'a IndexSet, Vec<f64>);

/// Appends the values of `post`'s partial slices to `values`, in table
/// order, and returns one presence flag per slice: a color whose buffer
/// was never allocated contributes a cleared flag and no values.
fn pack_slices(
    post: &PostMessage,
    setup: &LoopSetup<'_>,
    bufs: &[Buffers],
    values: &mut Vec<f64>,
) -> Vec<bool> {
    let pack = |(route, color, set): &(usize, usize, IndexSet)| {
        let Some(buf) = &bufs[*route][*color] else { return false };
        let spec = &setup.buffers[*route];
        let slot = |i| spec.slot(*color, i).expect("route slice within buffer set");
        values.extend(set.iter().map(|i| buf[slot(i)]));
        true
    };
    post.slices.iter().map(pack).collect()
}

/// Splits the slice values of a post message (what follows its
/// write-backs) back into `post`'s slices, in table order.
fn unpack_slices<'a>(
    post: &'a PostMessage,
    present: &[bool],
    mut values: &[f64],
    out: &mut Vec<Partial<'a>>,
) {
    for ((route, color, set), _) in post.slices.iter().zip(present).filter(|(_, &p)| p) {
        let (head, rest) = values.split_at(set.len() as usize);
        out.push((*route, *color, set, head.to_vec()));
        values = rest;
    }
    debug_assert!(values.is_empty(), "post message longer than its plan sets");
}
