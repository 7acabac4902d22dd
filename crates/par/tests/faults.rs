//! Injected pool-worker deaths (`par.worker_panic`) and recovery.
//!
//! These live in their own test binary because the fault plan is
//! process-global: a plan installed here must never race the pooled
//! regions of unrelated tests. Within the binary every test holds one
//! mutex for its whole body — the "pool recovers" half included, since a
//! concurrent test's one-shot plan would otherwise land in it.

use par::{par_map_range, try_par_map_range, with_cores, with_threads, ParError};
use std::sync::{Mutex, MutexGuard};

static PLAN: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    PLAN.lock().unwrap_or_else(|e| e.into_inner())
}

/// `with_threads(4)` plus a pinned 4-core measurement, so the executor
/// enlists workers (and thus draws `par.worker_panic`) even on a
/// single-core CI host.
fn pooled_t4<T>(f: impl FnOnce() -> T) -> T {
    with_cores(4, || with_threads(4, f))
}

/// Runs `f` under the plan `text`; the caller holds [`serial`].
fn with_fault_plan<T>(text: &str, f: impl FnOnce() -> T) -> T {
    faultkit::set_plan(Some(faultkit::FaultPlan::parse(text).unwrap()));
    let out = f();
    faultkit::set_plan(None);
    out
}

/// Big enough to clear the sequential-fallback threshold so the pool is
/// actually exercised.
const N: usize = 5000;

#[test]
fn injected_worker_death_is_a_typed_error_and_the_pool_recovers() {
    let _serial = serial();
    let err = with_fault_plan("par.worker_panic=1", || {
        pooled_t4(|| try_par_map_range(N, |i| i as u64))
    })
    .expect_err("one worker died mid-region");
    assert_eq!(err, ParError::WorkerPanicked);

    // Subsequent regions on the same pool run to completion: the dead
    // worker's channel is found closed at the next dispatch and a
    // replacement is spawned into its slot.
    let ok = pooled_t4(|| par_map_range(N, |i| (i * 3) as u64));
    assert!(ok.iter().enumerate().all(|(i, &v)| v == (i * 3) as u64));
}

#[test]
fn plain_entry_points_panic_rather_than_abort_on_worker_death() {
    let _serial = serial();
    let result = with_fault_plan("par.worker_panic=1", || {
        std::panic::catch_unwind(|| pooled_t4(|| par_map_range(N, |i| i)))
    });
    let payload = result.expect_err("region must report the lost worker");
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .map(str::to_owned)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(
        message.contains("pooled worker panicked"),
        "got {message:?}"
    );
    // And the pool is reusable afterwards.
    let ok = pooled_t4(|| par_map_range(N, |i| i + 1));
    assert_eq!(ok[N - 1], N);
}

#[test]
fn repeated_worker_deaths_respawn_repeatedly() {
    let _serial = serial();
    for round in 0..3 {
        let err = with_fault_plan("par.worker_panic=1", || {
            pooled_t4(|| try_par_map_range(N, |i| i as u64))
        });
        assert_eq!(err, Err(ParError::WorkerPanicked), "round {round}");
        let ok = pooled_t4(|| try_par_map_range(N, |i| i as u64)).unwrap();
        assert_eq!(ok.len(), N, "round {round}");
    }
}

#[test]
fn zero_rate_worker_panic_plan_is_bit_identical_to_no_plan() {
    let _serial = serial();
    let work = || pooled_t4(|| par_map_range(N, |i| (i as f64).sqrt().to_bits()));
    faultkit::set_plan(None);
    let baseline = work();
    let gated = with_fault_plan("par.worker_panic=7@0", work);
    assert_eq!(baseline, gated);
}
