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
//! 3. **pull ghosts** — receive and install the rank's own ghost values;
//! 4. **boundary compute** — run the remaining colors;
//! 5. **post** — send in-place write-backs (installed verbatim by the
//!    owner) and partial-reduction buffer slices (with per-slice presence
//!    flags) to the owners; receive the same, then merge partials in
//!    ascending global color order, so results agree bit-for-bit with the
//!    sequential interpreter.
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
use partir_core::exchange::{ExchangePlan, LoopExchange, PostMessage};
use partir_dpl::index_set::IndexSet;
use partir_dpl::region::{FieldId, Schema};
use partir_obs::trace::{RankTracer, SpanKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

/// A copy of a rank's owned shard of every F64 field (a checkpoint), ready
/// to be written back into a unified store.
pub(crate) type OwnedShards = Vec<(FieldId, Vec<f64>)>;

/// Records a completed communication span when timeline collection is on.
/// `start` is `None` exactly when the tracer is — the per-peer `Instant`s
/// are only taken under `tracer.is_some()`, so the tracing-off path costs
/// nothing beyond the phase-level stats timers that always ran.
#[inline]
fn rec(
    tracer: &mut Option<RankTracer>,
    kind: SpanKind,
    epoch: usize,
    start: Option<Instant>,
    dur_ns: u64,
    bytes: u64,
    peer: usize,
) {
    if let (Some(tr), Some(t0)) = (tracer.as_mut(), start) {
        tr.record(kind, epoch, t0, dur_ns, bytes, Some(peer));
    }
}

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
    mut tracer: Option<RankTracer>,
) -> Result<(D, DistReport, Option<RankTracer>), DistError> {
    let mut stats = DistReport::default();
    let env = TaskEnv {
        check: cx.check,
        rank: cx.xplan.map(|_| rank),
        abort: &sync.abort,
        violation: &sync.violation,
    };
    let fault = cx.faults.plan.as_ref();
    for (li, setup) in cx.setups.iter().enumerate().skip(cx.first_epoch) {
        if sync.abort.load(Ordering::Relaxed) {
            return Err(DistError::Aborted);
        }
        // Injected whole-rank crash: die at the top of the epoch, before
        // sending or computing anything for it. The shared `lost` slot is
        // the driver's ground truth; a loud crash also broadcasts notices
        // so peers detect the loss without waiting out their deadline.
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
        run_epoch(
            rank,
            li,
            Colors::new(li, setup, &env, cx.faults),
            cx.xplan.map(|x| &x.loops[li]),
            workers,
            &mut store,
            senders,
            mailbox,
            &mut stats,
            &mut tracer,
            fault,
        )?;
        // Checkpoint hook: snapshot the owned shard (never ghosts) after
        // every `interval_epochs`-th completed epoch.
        if let (Some((policy, ckpts)), Some(xplan)) = (cx.ckpt, cx.xplan) {
            if policy.due(li as u64) {
                let t = Instant::now();
                let shard = extract_owned(&store, xplan, rank, cx.schema);
                let bytes: u64 = shard.iter().map(|(_, v)| v.len() as u64 * 8).sum();
                ckpts.put(rank, li as u64, shard);
                let d = t.elapsed().as_nanos() as u64;
                stats.checkpoints += 1;
                stats.checkpoint_bytes += bytes;
                stats.checkpoint_ns += d;
                if let Some(tr) = tracer.as_mut() {
                    tr.record(SpanKind::Checkpoint, li, t, d, bytes, None);
                }
            }
        }
    }
    Ok((store, stats, tracer))
}

/// One epoch of one rank: one loop, exchanging what the loop's message
/// table `lx` lists when the rank has peers.
#[allow(clippy::too_many_arguments)]
fn run_epoch<D: RankData>(
    rank: usize,
    li: usize,
    colors: Colors<'_, '_>,
    lx: Option<&LoopExchange>,
    workers: usize,
    store: &mut D,
    senders: &[Sender<Msg>],
    mailbox: &mut Mailbox,
    stats: &mut DistReport,
    tracer: &mut Option<RankTracer>,
    fault: Option<&FaultPlan>,
) -> Result<(), DistError> {
    let setup = colors.setup;
    let epoch = li as u64;
    let abort = colors.env.abort;
    // One register file per rank and epoch, not per task.
    let mut regs = Regs::new(setup);
    let all: Vec<usize>;
    let (interior, pairs) = match lx {
        Some(lx) => (&lx.interior[rank][..], &lx.pairs[..]),
        None => {
            all = (0..setup.iter.num_subregions()).collect();
            (&all[..], &[][..])
        }
    };
    let n_ranks = pairs.len();

    // Phase 1: pack and push ghosts (owner-fresh loop-start values).
    let t = Instant::now();
    for (dst, out) in pairs.get(rank).into_iter().flatten().enumerate() {
        let sets = &out.ghost;
        if dst == rank || sets.is_empty() {
            continue;
        }
        let t0 = tracer.is_some().then(Instant::now);
        let mut values = Vec::new();
        let packed = pack(store, sets, &mut values);
        let bytes = packed as u64 * 8;
        rec(tracer, SpanKind::Pack, li, t0, elapsed(t0), bytes, dst);
        stats.bytes_sent += bytes;
        stats.messages += 1;
        let t1 = tracer.is_some().then(Instant::now);
        send_faulty(
            fault,
            senders,
            dst,
            Msg { epoch, src: rank, kind: MsgKind::Ghost, values, partials_present: Vec::new() },
            abort,
            stats,
        )?;
        rec(tracer, SpanKind::Send, li, t1, elapsed(t1), bytes, dst);
    }
    stats.pack_ns += t.elapsed().as_nanos() as u64;

    // Phase 2: interior compute, overlapping the ghost traffic in flight.
    let t = Instant::now();
    colors.run(store, interior, workers, &mut regs);
    let d = t.elapsed().as_nanos() as u64;
    stats.compute_ns += d;
    // Interior/halo/merge spans are recorded unconditionally (even with no
    // colors to run) so every epoch appears on every rank's timeline.
    if let Some(tr) = tracer.as_mut() {
        tr.record(SpanKind::InteriorCompute, li, t, d, 0, None);
    }

    // Phases 3+4: arrival-order halo install with dependency-driven
    // boundary compute. Ghost messages are taken as they land (whichever
    // peer is fastest first), and each boundary color runs as soon as the
    // peers *it* depends on (`boundary_deps`) have installed — the rank
    // waits only for the halos a color actually reads, never for the whole
    // exchange, and never in a fixed source order a slow peer could stall.
    let (boundary, deps) = match lx {
        Some(lx) => (&lx.boundary[rank][..], &lx.boundary_deps[rank][..]),
        None => (&[][..], &[][..]),
    };
    let mut color_done = vec![false; boundary.len()];
    let mut installed = vec![false; n_ranks];
    let mut wanted: Vec<usize> =
        (0..n_ranks).filter(|&src| src != rank && !pairs[src][rank].ghost.is_empty()).collect();
    let mut halo_spans = 0usize;
    loop {
        // Run every boundary color whose halos are all resident.
        let t = Instant::now();
        let mut ran = false;
        for (k, &c) in boundary.iter().enumerate() {
            if color_done[k] || !deps[k].iter().all(|&s| s == rank || installed[s]) {
                continue;
            }
            colors.run(store, &[c], 1, &mut regs);
            color_done[k] = true;
            ran = true;
        }
        if ran {
            let d = t.elapsed().as_nanos() as u64;
            stats.compute_ns += d;
            halo_spans += 1;
            if let Some(tr) = tracer.as_mut() {
                tr.record(SpanKind::HaloCompute, li, t, d, 0, None);
            }
        }
        if wanted.is_empty() || abort.load(Ordering::Relaxed) {
            break;
        }
        let t0 = Instant::now();
        let msg = mailbox
            .recv_any(epoch, MsgKind::Ghost, &mut wanted)
            .map_err(|e| mb_err(e, wanted.first().copied().unwrap_or(rank), epoch))?;
        let wait = t0.elapsed().as_nanos() as u64;
        stats.exchange_wait_ns += wait;
        let bytes = msg.values.len() as u64 * 8;
        if let Some(tr) = tracer.as_mut() {
            tr.record(SpanKind::RecvWait, li, t0, wait, bytes, Some(msg.src));
        }
        let t1 = Instant::now();
        let rest = unpack(store, &pairs[msg.src][rank].ghost, &msg.values);
        debug_assert!(rest.is_empty(), "ghost message longer than its plan sets");
        let un = t1.elapsed().as_nanos() as u64;
        stats.unpack_ns += un;
        if let Some(tr) = tracer.as_mut() {
            tr.record(SpanKind::Unpack, li, t1, un, bytes, Some(msg.src));
        }
        installed[msg.src] = true;
    }
    // Keep the halo phase visible on every rank's timeline even when the
    // epoch had no boundary colors.
    if halo_spans == 0 {
        if let Some(tr) = tracer.as_mut() {
            tr.record(SpanKind::HaloCompute, li, Instant::now(), 0, 0, None);
        }
    }
    let (bufs, counts) = colors.finish(store, &mut regs)?;
    debug_assert!(color_done.iter().all(|&d| d), "every boundary color ran");
    stats.add(&counts);

    // Phase 5: post traffic out — write-backs first, then the pair's
    // partial-buffer slices with presence flags.
    let t = Instant::now();
    for (dst, out) in pairs.get(rank).into_iter().flatten().enumerate() {
        let post = &out.post;
        if dst == rank || post.is_empty() {
            continue;
        }
        let t0 = tracer.is_some().then(Instant::now);
        let mut values = Vec::new();
        pack(store, &post.write_back, &mut values);
        let flags = pack_slices(post, setup, &bufs, &mut values);
        let bytes = values.len() as u64 * 8;
        rec(tracer, SpanKind::Pack, li, t0, elapsed(t0), bytes, dst);
        stats.bytes_sent += bytes;
        stats.messages += 1;
        let t1 = tracer.is_some().then(Instant::now);
        send_faulty(
            fault,
            senders,
            dst,
            Msg { epoch, src: rank, kind: MsgKind::Post, values, partials_present: flags },
            abort,
            stats,
        )?;
        rec(tracer, SpanKind::Send, li, t1, elapsed(t1), bytes, dst);
    }
    stats.pack_ns += t.elapsed().as_nanos() as u64;

    // Phase 6: receive post traffic in arrival order — install write-backs
    // verbatim (disjoint per source, so order is immaterial), stash the
    // partial slices that came with values; the merge below sorts them
    // into the deterministic order.
    let mut partials: Vec<Partial<'_>> = Vec::new();
    let mut post_wanted: Vec<usize> =
        (0..n_ranks).filter(|&src| src != rank && !pairs[src][rank].post.is_empty()).collect();
    while !post_wanted.is_empty() {
        let t0 = Instant::now();
        let msg = mailbox
            .recv_any(epoch, MsgKind::Post, &mut post_wanted)
            .map_err(|e| mb_err(e, post_wanted.first().copied().unwrap_or(rank), epoch))?;
        let src = msg.src;
        let wait = t0.elapsed().as_nanos() as u64;
        stats.exchange_wait_ns += wait;
        let bytes = msg.values.len() as u64 * 8;
        if let Some(tr) = tracer.as_mut() {
            tr.record(SpanKind::RecvWait, li, t0, wait, bytes, Some(src));
        }
        let t1 = Instant::now();
        let post = &pairs[src][rank].post;
        let vals = unpack(store, &post.write_back, &msg.values);
        unpack_slices(post, &msg.partials_present, vals, &mut partials);
        let un = t1.elapsed().as_nanos() as u64;
        stats.unpack_ns += un;
        if let Some(tr) = tracer.as_mut() {
            tr.record(SpanKind::Unpack, li, t1, un, bytes, Some(src));
        }
    }

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
    let d = t.elapsed().as_nanos() as u64;
    stats.merge_ns += d;
    if let Some(tr) = tracer.as_mut() {
        tr.record(SpanKind::Merge, li, t, d, 0, None);
    }
    Ok(())
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

/// Elapsed nanoseconds of a gated instant (0 when tracing is off).
#[inline]
fn elapsed(start: Option<Instant>) -> u64 {
    start.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

fn send(
    senders: &[Sender<Msg>],
    dst: usize,
    msg: Msg,
    abort: &AtomicBool,
) -> Result<(), DistError> {
    senders[dst].send(msg).map_err(|_| {
        if abort.load(Ordering::Relaxed) {
            DistError::Aborted
        } else {
            DistError::Disconnected { rank: dst }
        }
    })
}

/// Maps a mailbox failure to the typed distributed error. `suspect` is
/// the first source the receive was still waiting on — for a deadline
/// expiry that is the rank whose traffic never came, the silent-crash
/// detection heuristic.
fn mb_err(e: MailboxError, suspect: usize, epoch: u64) -> DistError {
    match e {
        MailboxError::Aborted => DistError::Aborted,
        MailboxError::Disconnected => DistError::Disconnected { rank: suspect },
        MailboxError::Lost { rank } => DistError::RankLost { rank, epoch },
        MailboxError::Deadline => DistError::RankLost { rank: suspect, epoch },
    }
}

/// [`send`] under the fault plan: seeded in-flight drops make the sender
/// retransmit with seeded backoff (bounded by [`MAX_SEND_ATTEMPTS`], after
/// which the destination is declared lost), and seeded duplication sends a
/// second copy the receiver must dedup. Dropped attempts never cross the
/// channel, so the receiver's protocol meter stays comparable to the
/// plan's predicted volume; duplicates are metered separately on arrival.
fn send_faulty(
    fault: Option<&FaultPlan>,
    senders: &[Sender<Msg>],
    dst: usize,
    msg: Msg,
    abort: &AtomicBool,
    stats: &mut DistReport,
) -> Result<(), DistError> {
    let Some(f) = fault.filter(|f| f.drop_rate > 0.0 || f.dup_rate > 0.0) else {
        return send(senders, dst, msg, abort);
    };
    let (epoch, src, kind) = (msg.epoch, msg.src, msg.kind.tag());
    let mut attempt = 0u32;
    while f.drops(epoch, src, dst, kind, attempt) {
        stats.retransmits += 1;
        attempt += 1;
        if attempt >= MAX_SEND_ATTEMPTS {
            return Err(DistError::RankLost { rank: dst, epoch });
        }
        if abort.load(Ordering::Relaxed) {
            return Err(DistError::Aborted);
        }
        std::thread::sleep(Duration::from_micros(f.backoff_us(epoch, src, dst, attempt)));
    }
    if f.duplicates(epoch, src, dst, kind) {
        stats.duplicates += 1;
        // The real copy goes first: the receiver always waits for the
        // first arrival, so this send cannot race with its shutdown. The
        // trailing duplicate can — a receiver that already got everything
        // it wanted may exit before the extra copy lands, so a closed
        // channel there is a benign shutdown race, not a lost rank.
        send(senders, dst, msg.clone(), abort)?;
        let _ = send(senders, dst, msg, abort);
        return Ok(());
    }
    send(senders, dst, msg, abort)
}
