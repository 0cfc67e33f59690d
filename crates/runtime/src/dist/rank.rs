//! Per-rank SPMD execution: the epoch protocol and the rank data context.
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
//!    ascending global color order — the threaded executor's deterministic
//!    merge order, so results agree bit-for-bit.
//!
//! Colors run through the shared chunked executor ([`crate::task`]) over
//! the rank's [`RankStore`]: a global index that has no slot in the sharded
//! store *is* a distributed legality violation — the access escaped
//! `owned ∪ ghosts`.

use super::mailbox::{Mailbox, MailboxError, Msg, MsgKind};
use super::store::RankStore;
use super::{CheckpointStore, DistError};
use crate::fault::{CheckpointPolicy, FaultPlan, MAX_SEND_ATTEMPTS};
use crate::task::{LegalityViolation, LoopSetup, Regs, Storage, Task, TaskCounts, TaskEnv};
use parking_lot::Mutex;
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

/// Per-rank execution statistics, aggregated into the caller's report.
#[derive(Clone, Debug, Default)]
pub(crate) struct RankStats {
    pub tasks_run: u64,
    /// Summed over the rank's tasks; `buffer_bytes` is what they allocated.
    pub counts: TaskCounts,
    pub bytes_sent: u64,
    pub messages_sent: u64,
    pub pack_ns: u64,
    pub exchange_wait_ns: u64,
    pub unpack_ns: u64,
    pub compute_ns: u64,
    pub merge_ns: u64,
    /// Send attempts the fault plan dropped in flight (each one slept a
    /// seeded backoff and was retried).
    pub retransmits: u64,
    /// Extra copies the fault plan injected (the receiver dedups them).
    pub duplicates_sent: u64,
    /// Owned-shard checkpoints taken, and their cost.
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
    pub checkpoint_ns: u64,
    /// Measured `(bytes, messages)` received, indexed by source rank —
    /// copied from the mailbox meter at the end of the run for the
    /// predicted-vs-measured accounting.
    pub recv_by_src: Vec<(u64, u64)>,
    /// Measured out-of-plan `(bytes, messages)` — deduplicated duplicate
    /// deliveries and crash notices — kept out of `recv_by_src` so strict
    /// volume accounting still balances under fault injection.
    pub recv_aux_by_src: Vec<(u64, u64)>,
}

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

/// One rank's whole run: every loop in order; the shard it returns is what
/// the driver gathers from.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rank_main(
    rank: usize,
    setups: &[LoopSetup<'_>],
    xplan: &ExchangePlan,
    schema: &Schema,
    mut store: RankStore,
    senders: &[Sender<Msg>],
    mailbox: &mut Mailbox,
    check: bool,
    abort: &AtomicBool,
    violation: &Mutex<Option<LegalityViolation>>,
    mut tracer: Option<RankTracer>,
    first_epoch: usize,
    fault: Option<&FaultPlan>,
    ckpt: Option<(&CheckpointPolicy, &CheckpointStore)>,
    lost: &Mutex<Option<(usize, u64)>>,
) -> Result<(RankStore, RankStats, Option<RankTracer>), DistError> {
    let mut stats = RankStats::default();
    let env = TaskEnv { check, rank: Some(rank), abort, violation };
    for (li, setup) in setups.iter().enumerate().skip(first_epoch) {
        if abort.load(Ordering::Relaxed) {
            return Err(DistError::Aborted);
        }
        // Injected whole-rank crash: die at the top of the epoch, before
        // sending or computing anything for it. The shared `lost` slot is
        // the driver's ground truth; a loud crash also broadcasts notices
        // so peers detect the loss without waiting out their deadline.
        if let Some(crash) = fault.and_then(|f| f.crashes(rank, li as u64)) {
            let mut slot = lost.lock();
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
            setup,
            xplan,
            &env,
            &mut store,
            senders,
            mailbox,
            &mut stats,
            &mut tracer,
            fault,
        )?;
        // Checkpoint hook: snapshot the owned shard (never ghosts) after
        // every `interval_epochs`-th completed epoch. Reuses the
        // contiguous-run `copy_from_slice` gather of `extract_owned`.
        if let Some((policy, ckpts)) = ckpt {
            if policy.due(li as u64) {
                let t = Instant::now();
                let shard = store.extract_owned(xplan, rank, schema);
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
    stats.recv_by_src = mailbox.measured().to_vec();
    stats.recv_aux_by_src = mailbox.measured_aux().to_vec();
    Ok((store, stats, tracer))
}

#[allow(clippy::too_many_arguments)]
fn run_epoch(
    rank: usize,
    li: usize,
    setup: &LoopSetup<'_>,
    xplan: &ExchangePlan,
    env: &TaskEnv<'_>,
    store: &mut RankStore,
    senders: &[Sender<Msg>],
    mailbox: &mut Mailbox,
    stats: &mut RankStats,
    tracer: &mut Option<RankTracer>,
    fault: Option<&FaultPlan>,
) -> Result<(), DistError> {
    let n_ranks = xplan.n_ranks;
    let lx: &LoopExchange = &xplan.loops[li];
    let epoch = li as u64;
    let abort = env.abort;
    // bufs[buf][color]: the partial buffers of the rank's tasks (two-step
    // reductions), present once a task contributed.
    let mut bufs: Vec<Vec<Option<Vec<f64>>>> =
        setup.buffers.iter().map(|_| vec![None; xplan.n_colors]).collect();
    // One register file per rank and epoch, not per task.
    let mut regs = Regs::new(setup);
    let mut run_color = |color: usize, store: &mut RankStore, stats: &mut RankStats| {
        let mut task = Task::new(store, env, setup, color);
        task.run(&mut regs, None);
        stats.tasks_run += 1;
        stats.counts.add(&task.counts);
        for (per_color, buf) in bufs.iter_mut().zip(task.bufs) {
            per_color[color] = buf;
        }
    };

    // Phase 1: pack and push ghosts (owner-fresh loop-start values).
    let t = Instant::now();
    for (dst, out) in lx.pairs[rank].iter().enumerate() {
        let sets = &out.ghost;
        if dst == rank || sets.is_empty() {
            continue;
        }
        let t0 = tracer.is_some().then(Instant::now);
        let mut values = Vec::new();
        let packed = store.pack(sets, &mut values);
        let bytes = packed as u64 * 8;
        rec(tracer, SpanKind::Pack, li, t0, elapsed(t0), bytes, dst);
        stats.bytes_sent += bytes;
        stats.messages_sent += 1;
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
    for &c in &lx.interior[rank] {
        run_color(c, store, stats);
    }
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
    let boundary = &lx.boundary[rank];
    let deps = &lx.boundary_deps[rank];
    let mut color_done = vec![false; boundary.len()];
    let mut installed = vec![false; n_ranks];
    installed[rank] = true;
    let mut wanted: Vec<usize> =
        (0..n_ranks).filter(|&src| src != rank && !lx.pairs[src][rank].ghost.is_empty()).collect();
    let mut halo_spans = 0usize;
    loop {
        // Run every boundary color whose halos are all resident.
        let t = Instant::now();
        let mut ran = false;
        for (k, &c) in boundary.iter().enumerate() {
            if color_done[k] || !deps[k].iter().all(|&s| installed[s]) {
                continue;
            }
            run_color(c, store, stats);
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
        if wanted.is_empty() {
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
        let rest = store.unpack(&lx.pairs[msg.src][rank].ghost, &msg.values);
        debug_assert!(rest.is_empty(), "ghost message longer than its plan sets");
        let un = t1.elapsed().as_nanos() as u64;
        stats.unpack_ns += un;
        if let Some(tr) = tracer.as_mut() {
            tr.record(SpanKind::Unpack, li, t1, un, bytes, Some(msg.src));
        }
        installed[msg.src] = true;
    }
    debug_assert!(color_done.iter().all(|&d| d), "every boundary color ran");
    // Keep the halo phase visible on every rank's timeline even when the
    // epoch had no boundary colors.
    if halo_spans == 0 {
        if let Some(tr) = tracer.as_mut() {
            tr.record(SpanKind::HaloCompute, li, Instant::now(), 0, 0, None);
        }
    }

    // Phase 5: post traffic out — write-backs first, then the pair's
    // partial-buffer slices with presence flags.
    let t = Instant::now();
    for (dst, out) in lx.pairs[rank].iter().enumerate() {
        let post = &out.post;
        if dst == rank || post.is_empty() {
            continue;
        }
        let t0 = tracer.is_some().then(Instant::now);
        let mut values = Vec::new();
        store.pack(&post.write_back, &mut values);
        let flags = pack_slices(post, setup, &bufs, &mut values);
        let bytes = values.len() as u64 * 8;
        rec(tracer, SpanKind::Pack, li, t0, elapsed(t0), bytes, dst);
        stats.bytes_sent += bytes;
        stats.messages_sent += 1;
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
        (0..n_ranks).filter(|&src| src != rank && !lx.pairs[src][rank].post.is_empty()).collect();
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
        let post = &lx.pairs[src][rank].post;
        let vals = store.unpack(&post.write_back, &msg.values);
        unpack_slices(post, &msg.partials_present, vals, &mut partials);
        let un = t1.elapsed().as_nanos() as u64;
        stats.unpack_ns += un;
        if let Some(tr) = tracer.as_mut() {
            tr.record(SpanKind::Unpack, li, t1, un, bytes, Some(src));
        }
    }

    // Owner merge of partial reductions: route order, ascending *global*
    // color order, skipping colors whose buffer was never allocated — the
    // threaded executor's merge, restricted to the elements this rank owns.
    // The slices of the rank's own colors sit on the self pair and take the
    // same pack/unpack path, minus the mailbox.
    let t = Instant::now();
    let own = &lx.pairs[rank][rank].post;
    let mut own_values = Vec::new();
    let own_flags = pack_slices(own, setup, &bufs, &mut own_values);
    unpack_slices(own, &own_flags, &own_values, &mut partials);
    partials.sort_by_key(|&(route, color, ..)| (route, color));
    for (route, _, set, vals) in partials {
        let (field, op) = (lx.routes[route].field, lx.routes[route].op);
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
    bufs: &[Vec<Option<Vec<f64>>>],
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
    stats: &mut RankStats,
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
        stats.duplicates_sent += 1;
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
