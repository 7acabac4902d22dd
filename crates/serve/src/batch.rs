//! Batch admission for PIR fetches: queued requests from *different*
//! connections (and users) drain through one fused database sweep.
//!
//! The first request to arrive while no sweep is running becomes the
//! **leader**: it waits out a short admission window (`window_ms`) for
//! followers to pile on — or until `max_batch` requests are pending —
//! then drains the whole queue through [`tdf_pir::batch::retrieve_batch`]
//! and distributes the answers. Requests arriving *during* a sweep
//! enqueue and are drained by the same leader before it retires, so no
//! request can be stranded waiting for a leader that already left.
//!
//! The batcher owns the query RNG: masks are drawn under its lock in
//! batch order, so a server's answer stream is a deterministic function
//! of (seed, arrival order) — the same property the session layer gives
//! SQL queries.
//!
//! A sweep that panics (a lost `tdf-par` worker, for one) fails only its
//! own batch: every fetch in it gets a [`SweepFailed`], the leader goes
//! on draining, and the next batch is answered as usual.

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

/// One waiting request's result slot.
struct Slot {
    result: Mutex<Option<Answer>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Self {
        Self {
            result: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn fill(&self, answer: Answer) {
        let mut r = self
            .result
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *r = Some(answer);
        self.ready.notify_all();
    }

    fn wait(&self) -> Answer {
        let mut r = self
            .result
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(answer) = r.take() {
                return answer;
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
    /// True while a leader is sweeping; followers enqueue and wait.
    sweeping: bool,
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
            }),
            arrivals: Condvar::new(),
            window: Duration::from_millis(window_ms),
            max_batch: max_batch.max(1),
            rng: Mutex::new(rngkit::rngs::StdRng::seed_from_u64(seed ^ 0x9172)),
        }
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
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.pending.push(Pending {
            index,
            slot: std::sync::Arc::clone(&slot),
        });
        self.arrivals.notify_all();
        if state.sweeping {
            // A leader is active and will drain us before retiring.
            drop(state);
            return slot.wait();
        }
        state.sweeping = true;
        // Leader: hold the admission window open so concurrent fetches
        // coalesce, unless the batch is already full.
        let deadline = Instant::now() + self.window;
        while state.pending.len() < self.max_batch {
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
        // Drain until the queue is empty — including requests that
        // arrived while we were sweeping — then retire the leader role.
        loop {
            let batch = std::mem::take(&mut state.pending);
            if batch.is_empty() {
                state.sweeping = false;
                break;
            }
            drop(state);
            self.sweep(db, &batch);
            state = self
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        drop(state);
        // Our own slot was in the first batch this leader swept.
        slot.wait()
    }

    /// Answers one drained batch with a fused sweep (at most `max_batch`
    /// lanes per sweep, so a burst cannot build an unbounded mask set).
    /// A sweep that panics fails every fetch of its chunk and nothing
    /// else: the panic stops here, so the leader keeps draining.
    fn sweep(&self, db: &Database, batch: &[Pending]) {
        for chunk in batch.chunks(self.max_batch) {
            obs::count("serve.pir.batches", 1);
            obs::gauge_max("serve.pir.batch_max", chunk.len() as u64);
            let indices: Vec<usize> = chunk.iter().map(|p| p.index).collect();
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
                    for (p, record) in chunk.iter().zip(outcome.records) {
                        p.slot.fill(Ok(record));
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
                    for p in chunk {
                        p.slot.fill(Err(failed.clone()));
                    }
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
