//! Batch admission for PIR fetches: queued requests from *different*
//! connections (and users) drain through one fused database sweep.
//!
//! The first request to arrive while no sweep is running becomes the
//! **leader**: it holds an admission window of at most `window_ms` open
//! for followers to pile on, then answers up to `max_batch` queued
//! requests, its own first, through [`tdf_pir::batch::retrieve_batch`].
//! Requests arriving *during* a sweep enqueue; the retiring leader
//! hands its role to the oldest of them, which opens a window of its
//! own. So no request is stranded waiting for a leader that already
//! left, and no leader's answer waits behind a later batch's sweep.
//!
//! The window closes early once no further fetch can join it: when
//! `max_batch` requests are pending, or when every connection a server
//! worker holds has a fetch pending. A worker blocks in
//! [`PirBatcher::try_fetch`] until its answer arrives, so each held
//! connection has at most one fetch pending; the server counts its
//! connections through `PirBatcher::hold_connection`. A batcher with
//! no held connections (a direct caller, a test) waits the full window.
//! The count only decides when a window closes, never which records a
//! batch answers: a wrong count costs coalescing, never a record.
//!
//! The batcher owns the query RNG: masks are drawn under its lock in
//! batch order, so a server's answer stream is a deterministic function
//! of (seed, arrival order) — the same property the session layer gives
//! SQL queries.
//!
//! A sweep that panics (a lost `tdf-par` worker, for one) fails only its
//! own batch: every fetch in it gets a [`SweepFailed`], the leader
//! still hands on its role, and the next batch is answered as usual.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};
use tdf_pir::store::Database;

/// Why a fetch got no record: the fused sweep of its batch panicked.
/// Never a wrong record — the fetch may simply be retried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepFailed {
    /// The sweep's panic message, when it was string-typed.
    pub message: String,
}

impl std::fmt::Display for SweepFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the PIR batch sweep failed: {}", self.message)
    }
}

impl std::error::Error for SweepFailed {}

type Answer = Result<Vec<u8>, SweepFailed>;

/// What wakes a waiting request: its answer, or the leader role.
enum Turn {
    Answered(Answer),
    Lead,
}

/// One waiting request's wake-up slot.
struct Slot {
    turn: Mutex<Option<Turn>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Self {
        Self {
            turn: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn fill(&self, turn: Turn) {
        let mut r = self
            .turn
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *r = Some(turn);
        self.ready.notify_all();
    }

    fn wait(&self) -> Turn {
        let mut r = self
            .turn
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(turn) = r.take() {
                return turn;
            }
            r = self
                .ready
                .wait(r)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

struct Pending {
    index: usize,
    slot: std::sync::Arc<Slot>,
}

struct State {
    pending: Vec<Pending>,
    /// True while a request leads (or has been handed the lead);
    /// followers enqueue and wait.
    sweeping: bool,
    /// Connections server workers hold (`PirBatcher::hold_connection`).
    connections: usize,
}

impl State {
    /// True when no further fetch can join the leader's window: the
    /// batch is full, or every held connection has its fetch pending.
    fn window_closed(&self, max_batch: usize) -> bool {
        let pending = self.pending.len();
        pending >= max_batch || (self.connections > 0 && pending >= self.connections)
    }
}

/// One connection a server worker holds, counted by its batcher until
/// the guard drops.
pub(crate) struct HeldConnection<'a> {
    batcher: &'a PirBatcher,
}

impl Drop for HeldConnection<'_> {
    fn drop(&mut self) {
        self.batcher.lock_state().connections -= 1;
        // A leader waiting on this connection's fetch may now close.
        self.batcher.arrivals.notify_all();
    }
}

/// Coalesces concurrent PIR fetches into fused batch sweeps.
pub struct PirBatcher {
    state: Mutex<State>,
    arrivals: Condvar,
    window: Duration,
    max_batch: usize,
    rng: Mutex<rngkit::rngs::StdRng>,
}

impl PirBatcher {
    /// Creates a batcher drawing query masks from `seed`.
    pub fn new(seed: u64, window_ms: u64, max_batch: usize) -> Self {
        use rngkit::SeedableRng;
        Self {
            state: Mutex::new(State {
                pending: Vec::new(),
                sweeping: false,
                connections: 0,
            }),
            arrivals: Condvar::new(),
            window: Duration::from_millis(window_ms),
            max_batch: max_batch.max(1),
            rng: Mutex::new(rngkit::rngs::StdRng::seed_from_u64(seed ^ 0x9172)),
        }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Counts one connection that a worker holds, until the guard drops.
    /// Take it around everything the connection may fetch: the leader's
    /// window closes as soon as every counted connection has a fetch
    /// pending.
    pub(crate) fn hold_connection(&self) -> HeldConnection<'_> {
        self.lock_state().connections += 1;
        HeldConnection { batcher: self }
    }

    /// [`Self::try_fetch`] for callers with no error path: panics with
    /// the [`SweepFailed`] message if the batch's sweep failed.
    pub fn fetch(&self, db: &Database, index: usize) -> Vec<u8> {
        self.try_fetch(db, index).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fetches record `index`, batching with whatever else is pending.
    /// Blocks the calling worker until its answer is ready. `index` must
    /// already be range-checked against `db`.
    pub fn try_fetch(&self, db: &Database, index: usize) -> Result<Vec<u8>, SweepFailed> {
        let slot = std::sync::Arc::new(Slot::new());
        let mut state = self.lock_state();
        state.pending.push(Pending {
            index,
            slot: std::sync::Arc::clone(&slot),
        });
        self.arrivals.notify_all();
        if state.sweeping {
            // A leader is active: it answers us or hands us its role.
            drop(state);
            if let Turn::Answered(answer) = slot.wait() {
                return answer;
            }
            state = self.lock_state();
        }
        state.sweeping = true;
        // Leader: hold the admission window open so concurrent fetches
        // coalesce, until no further fetch can join it.
        let deadline = Instant::now() + self.window;
        while !state.window_closed(self.max_batch) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, timeout) = self
                .arrivals
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state = guard;
            if timeout.timed_out() {
                break;
            }
        }
        // Our own request heads the queue, so it is in this batch.
        let take = state.pending.len().min(self.max_batch);
        let batch: Vec<Pending> = state.pending.drain(..take).collect();
        drop(state);
        self.sweep(db, &batch);
        // Retire: the oldest request that arrived meanwhile leads next
        // and opens its own window, so our answer waits for no one.
        let mut state = self.lock_state();
        match state.pending.first() {
            Some(next) => next.slot.fill(Turn::Lead),
            None => state.sweeping = false,
        }
        drop(state);
        match slot.wait() {
            Turn::Answered(answer) => answer,
            Turn::Lead => unreachable!("a leader's own request is in the batch it swept"),
        }
    }

    /// Answers one batch (at most `max_batch` requests, so a burst
    /// cannot build an unbounded mask set) with a fused sweep. A sweep
    /// that panics fails every fetch of its batch and nothing else: the
    /// panic stops here, so the leader still hands on its role.
    fn sweep(&self, db: &Database, batch: &[Pending]) {
        obs::count("serve.pir.batches", 1);
        obs::gauge_max("serve.pir.batch_max", batch.len() as u64);
        let indices: Vec<usize> = batch.iter().map(|p| p.index).collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = self
                .rng
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            tdf_pir::batch::retrieve_batch(&mut *rng, db, &indices)
        }));
        match outcome {
            Ok(outcome) => {
                if outcome.degraded {
                    obs::count("serve.pir.degraded_batches", 1);
                }
                for (p, record) in batch.iter().zip(outcome.records) {
                    p.slot.fill(Turn::Answered(Ok(record)));
                }
            }
            Err(payload) => {
                obs::count("serve.pir.failed_batches", 1);
                let failed = SweepFailed {
                    message: payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_owned())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_owned()),
                };
                for p in batch {
                    p.slot.fill(Turn::Answered(Err(failed.clone())));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn db(n: usize) -> Database {
        Database::from_fn(n, 32, |i, rec| {
            for (j, b) in rec.iter_mut().enumerate() {
                *b = (i * 3 + j) as u8;
            }
        })
    }

    #[test]
    fn single_fetch_returns_the_record() {
        let db = db(500);
        let batcher = PirBatcher::new(1, 0, 64);
        for i in [0usize, 7, 499] {
            assert_eq!(batcher.fetch(&db, i), db.record(i).to_vec());
        }
    }

    #[test]
    fn concurrent_fetches_coalesce_and_all_answer_correctly() {
        let db = Arc::new(db(2000));
        // A wide window so every thread lands in the leader's batch.
        let batcher = Arc::new(PirBatcher::new(2, 150, 64));
        let barrier = Arc::new(std::sync::Barrier::new(16));
        let before = obs::level();
        obs::set_level(1);
        obs::reset();
        let handles: Vec<_> = (0..16)
            .map(|t| {
                let db = Arc::clone(&db);
                let batcher = Arc::clone(&batcher);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let index = t * 117;
                    barrier.wait();
                    (index, batcher.fetch(&db, index))
                })
            })
            .collect();
        for h in handles {
            let (index, record) = h.join().expect("fetch thread");
            assert_eq!(record, db.record(index).to_vec(), "index {index}");
        }
        let snap = obs::snapshot();
        let batches = snap.counter("serve.pir.batches");
        let widest = snap.gauge("serve.pir.batch_max");
        obs::set_level(before);
        assert!(batches >= 1, "at least one sweep ran");
        assert!(
            widest >= 2,
            "16 simultaneous fetches through a 150 ms window must coalesce, widest batch was {widest}"
        );
    }

    /// Fetches `index` on a helper thread; the receiver yields its
    /// record and how long the fetch took.
    fn fetch_on_thread(
        db: &Arc<Database>,
        batcher: &Arc<PirBatcher>,
        index: usize,
    ) -> std::sync::mpsc::Receiver<(Vec<u8>, Duration)> {
        let (db, batcher) = (Arc::clone(db), Arc::clone(batcher));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let start = Instant::now();
            let record = batcher.fetch(&db, index);
            let _ = tx.send((record, start.elapsed()));
        });
        rx
    }

    #[test]
    fn a_lone_held_connection_does_not_wait_out_the_window() {
        let db = db(500);
        let batcher = PirBatcher::new(4, 10_000, 64);
        let _held = batcher.hold_connection();
        let start = Instant::now();
        assert_eq!(batcher.fetch(&db, 42), db.record(42).to_vec());
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{:?}",
            start.elapsed()
        );
    }

    #[test]
    fn the_window_closes_when_every_held_connection_is_pending() {
        let db = Arc::new(db(500));
        let batcher = Arc::new(PirBatcher::new(5, 10_000, 64));
        let _held = [batcher.hold_connection(), batcher.hold_connection()];
        let first = fetch_on_thread(&db, &batcher, 7);
        // The first fetch leads and waits for the second connection's.
        while batcher.lock_state().pending.is_empty() {
            std::thread::yield_now();
        }
        let second = fetch_on_thread(&db, &batcher, 300);
        for (rx, index) in [(first, 7), (second, 300)] {
            let (record, took) = rx
                .recv_timeout(Duration::from_secs(1))
                .expect("both fetches are answered without waiting out the window");
            assert_eq!(record, db.record(index).to_vec());
            assert!(took < Duration::from_secs(1), "fetch took {took:?}");
        }
    }

    #[test]
    fn a_released_connection_frees_the_waiting_leader() {
        let db = Arc::new(db(500));
        let batcher = Arc::new(PirBatcher::new(6, 10_000, 64));
        let held = batcher.hold_connection();
        let other = batcher.hold_connection();
        let rx = fetch_on_thread(&db, &batcher, 99);
        while batcher.lock_state().pending.is_empty() {
            std::thread::yield_now();
        }
        // The leader waits for `other`'s fetch; closing `other` instead
        // leaves nothing more to wait for.
        drop(other);
        let (record, took) = rx
            .recv_timeout(Duration::from_secs(1))
            .expect("the released connection ends the window");
        assert_eq!(record, db.record(99).to_vec());
        assert!(took < Duration::from_secs(1), "fetch took {took:?}");
        drop(held);
        assert_eq!(batcher.lock_state().connections, 0);
    }

    #[test]
    fn max_batch_bounds_each_sweep() {
        let db = Arc::new(db(300));
        let batcher = Arc::new(PirBatcher::new(3, 100, 4));
        let barrier = Arc::new(std::sync::Barrier::new(12));
        let handles: Vec<_> = (0..12)
            .map(|t| {
                let db = Arc::clone(&db);
                let batcher = Arc::clone(&batcher);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    (t, batcher.fetch(&db, t * 20))
                })
            })
            .collect();
        for h in handles {
            let (t, record) = h.join().expect("fetch thread");
            assert_eq!(record, db.record(t * 20).to_vec());
        }
    }
}
