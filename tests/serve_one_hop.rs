//! The serving contract with the only worker kept busy: a hit is answered
//! on the caller's thread without a queue slot, a miss is looked up once
//! (on the caller) and holds one slot until it is answered, and every
//! request of a key whose solves fail is answered. The worker is held by `common::classic_loops_and_rows` under
//! an admission deadline: its solve runs until the deadline (or until it
//! is done, about 0.3 s unbudgeted in release), while the requests below
//! are admitted in microseconds.

use partir::prelude::*;
use partir::serve::Ticket;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::{build, classic_loops_and_rows, Built, Cfg};

const DEADLINE: Duration = Duration::from_millis(300);

/// Longest any reply may take before the test calls it hung.
const HUNG: Duration = Duration::from_secs(120);

fn request(built: &Built) -> Partir {
    Partir::new(built.program.clone(), built.fns.clone(), built.store.schema().clone()).colors(4)
}

/// A program of one loop, solved in well under a millisecond.
fn small() -> Built {
    build(&Cfg {
        n_a: 16,
        n_b: 8,
        colors: 4,
        read_ptr_chain: false,
        read_affine: true,
        reduce_via_ptr: false,
        reduce_via_affine: true,
        second_loop: false,
        ptr_seed: 1,
    })
}

fn server(deadline: Duration, queue_cap: usize) -> Server {
    let budget = SolveBudget { deadline: Some(deadline), ..SolveBudget::unlimited() };
    Server::new(ServeConfig { workers: 1, queue_cap, ..ServeConfig::default() }.budget(budget))
}

/// Waits for every ticket on threads of its own, so a ticket that is never
/// answered fails the test instead of blocking it.
fn wait_all(tickets: Vec<Ticket>) -> Vec<Result<ServeReply, Error>> {
    let (tx, rx) = mpsc::channel();
    let n = tickets.len();
    for (k, ticket) in tickets.into_iter().enumerate() {
        let tx = tx.clone();
        std::thread::spawn(move || tx.send((k, ticket.wait())));
    }
    let mut replies: Vec<_> =
        (0..n).map(|_| rx.recv_timeout(HUNG).expect("every ticket is answered")).collect();
    replies.sort_by_key(|(k, _)| *k);
    replies.into_iter().map(|(_, r)| r).collect()
}

/// (a) With the worker solving and the queue full, a primed request is
/// answered at once, shares the cached artifact, and takes no slot.
#[test]
fn a_hit_is_answered_on_the_caller_while_the_queue_is_full() {
    let (busy, small) = (classic_loops_and_rows(), small());
    let server = server(DEADLINE, 2);
    let primed = server.solve(request(&small)).expect("the small shape solves");
    let held = vec![
        server.submit(request(&busy)).unwrap(),
        server.submit(request(&small).colors(3)).unwrap(),
    ];
    assert_eq!(server.inflight(), 2);
    let full = server.submit(request(&small).colors(5)).unwrap_err();
    assert_eq!(full.error_code(), "serve.queue_full");

    let t = Instant::now();
    let hit = server.submit(request(&small)).expect("a hit is never refused").wait();
    let took = t.elapsed();
    let hit = hit.expect("a hit is served");
    assert!(took < DEADLINE / 4, "a hit took {took:?} behind a busy worker");
    assert!(hit.plan.cache_hit());
    assert!(Arc::ptr_eq(hit.plan.solved(), primed.plan.solved()));
    assert_eq!(server.inflight(), 2, "a hit takes no queue slot");

    for reply in wait_all(held) {
        if let Err(e) = reply {
            assert_eq!(e.error_code(), "serve.over_budget");
        }
    }
    assert_eq!(server.inflight(), 0);
}

/// (b) Two submissions of one new key queued behind the busy worker are
/// each looked up once, on the caller, and each holds a slot until its
/// solve ends.
#[test]
fn queued_misses_are_looked_up_once_each() {
    let (busy, small) = (classic_loops_and_rows(), small());
    let server = server(DEADLINE, 64);
    let busy = server.submit(request(&busy)).unwrap();
    let twins =
        vec![server.submit(request(&small)).unwrap(), server.submit(request(&small)).unwrap()];
    assert_eq!(server.inflight(), 3, "every queued miss holds a slot");
    let replies: Vec<_> =
        wait_all(twins).into_iter().map(|r| r.expect("the small shape solves")).collect();
    assert!(replies.iter().all(|r| !r.plan.cache_hit()), "both were misses");
    assert_eq!(replies[0].plan.fingerprint(), replies[1].plan.fingerprint());
    let _ = wait_all(vec![busy]);
    let stats = server.cache_stats().unwrap();
    assert_eq!((stats.hits, stats.misses), (0, 3), "one lookup per request");
    assert_eq!(server.inflight(), 0);
}

/// (c) Every request of a key whose solves run out of their deadline is
/// answered `serve.over_budget`; none is left waiting, and nothing is
/// cached.
#[test]
fn every_request_of_a_failing_key_is_answered() {
    let busy = classic_loops_and_rows();
    // A quarter of this machine's unbudgeted solve: every solve of the key
    // degrades, and the first holds the worker while the others queue.
    let t = Instant::now();
    request(&busy).solve().expect("the program solves unbudgeted");
    let deadline = (t.elapsed() / 4).min(DEADLINE);
    let server = server(deadline, 64);
    let tickets: Vec<_> = (0..3).map(|_| server.submit(request(&busy)).unwrap()).collect();
    assert_eq!(server.inflight(), 3);
    for reply in wait_all(tickets) {
        assert_eq!(reply.unwrap_err().error_code(), "serve.over_budget");
    }
    assert_eq!(server.inflight(), 0);
    let stats = server.cache_stats().unwrap();
    assert_eq!((stats.hits + stats.misses, stats.entries), (3, 0));
}
