//! Injected serve faults and every serve test that reads obs counters.
//!
//! These live in their own test binary because the fault plan and the
//! obs registry are process-global: a one-shot `serve.partial_response`
//! plan installed here must never be spent by an unrelated test's
//! request, and the counters asserted here must see no other test's
//! traffic (nor be reset under it). Within the binary every test holds
//! one mutex for its whole body.

use std::io;
use std::sync::{Mutex, MutexGuard};
use tdf_serve::{Client, RefusalReason, Response, Server, ServerConfig, SessionConfig};

static PLAN: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    PLAN.lock().unwrap_or_else(|e| e.into_inner())
}

/// An installed fault plan, cleared on drop so that a failing test
/// cannot leave it armed for the next one.
struct Armed;

impl Drop for Armed {
    fn drop(&mut self) {
        faultkit::set_plan(None);
    }
}

fn arm(plan: &str) -> Armed {
    faultkit::set_plan(Some(faultkit::FaultPlan::parse(plan).unwrap()));
    Armed
}

fn server(workers: usize, budget: f64) -> Server {
    Server::start(ServerConfig {
        rows: 300,
        seed: 0xBEEF,
        workers,
        session: SessionConfig {
            epsilon_per_query: 1.0,
            budget,
            seed: 0xBEEF,
            min_query_set: 2,
            max_overlap: usize::MAX,
            max_rows: 0,
        },
        ..ServerConfig::default()
    })
    .expect("server starts")
}

const SQL: &str = "SELECT COUNT(*) FROM t WHERE height >= 150";

/// One opcode under a one-shot `serve.partial_response` plan: requests
/// sent before the plan, the request whose response the fault cuts, and
/// the checks a fresh connection makes afterwards.
struct CutCase {
    opcode: &'static str,
    setup: fn(&mut Client),
    cut: fn(&mut Client) -> io::Result<Response>,
    after: fn(&mut Client),
}

fn expect_policy_refusal(response: Response, says: &str) {
    match response {
        Response::Refused { reason, message } => {
            assert_eq!(reason, RefusalReason::Policy);
            assert!(message.contains(says), "got {message:?}");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn injected_partial_response_is_a_client_error_never_a_partial_answer() {
    let _serial = serial();
    let cases = [
        CutCase {
            opcode: "QUERY",
            setup: |_| {},
            cut: |c| c.query(3, SQL),
            // The worker survives the severed connection and keeps serving.
            after: |c| {
                assert!(matches!(c.query(4, SQL).unwrap(), Response::Perturbed(_)));
            },
        },
        CutCase {
            opcode: "PIR_FETCH",
            setup: |_| {},
            cut: |c| c.pir_fetch(3, 7),
            after: |c| {
                let record = tdf_serve::pir_record(0xBEEF, 32, 7);
                assert_eq!(c.pir_fetch(4, 7).unwrap(), Response::Record(record));
            },
        },
        // The cut APPEND's 40 rows are in the next APPEND's row count.
        CutCase {
            opcode: "APPEND",
            setup: |_| {},
            cut: |c| c.append(1, 40),
            after: |c| assert_eq!(c.append(1, 5).unwrap(), Response::Exact(345.0)),
        },
        // The cut SEAL froze the 10 appended rows as segment 2, so the
        // next appended rows seal as segment 3.
        CutCase {
            opcode: "SEAL",
            setup: |c| assert_eq!(c.append(1, 10).unwrap(), Response::Exact(310.0)),
            cut: |c| c.seal(1),
            after: |c| {
                assert_eq!(c.append(1, 5).unwrap(), Response::Exact(315.0));
                assert_eq!(c.seal(1).unwrap(), Response::Exact(3.0));
            },
        },
        CutCase {
            opcode: "DISGUISE",
            setup: |_| {},
            cut: |c| c.disguise(5),
            after: |c| expect_policy_refusal(c.disguise(5).unwrap(), "already disguised"),
        },
        CutCase {
            opcode: "RESTORE",
            setup: |c| assert_eq!(c.disguise(5).unwrap(), Response::Exact(19.0)),
            cut: |c| c.restore(5),
            after: |c| {
                expect_policy_refusal(c.restore(5).unwrap(), "no active disguise");
                assert_eq!(c.disguise(5).unwrap(), Response::Exact(19.0));
            },
        },
        CutCase {
            opcode: "BYE",
            setup: |_| {},
            cut: |c| c.bye(3),
            after: |c| assert_eq!(c.bye(4).unwrap(), Response::Bye),
        },
    ];
    for case in cases {
        let server = server(2, 10.0);
        let mut victim = Client::connect(server.addr()).expect("connect");
        (case.setup)(&mut victim);
        let armed = arm("serve.partial_response=1");
        // The server executes the request, writes half the response frame
        // and severs the socket. The framing makes that an I/O error at
        // the client — under no interleaving can it surface as a
        // (different) answer.
        let outcome = (case.cut)(&mut victim);
        assert!(outcome.is_err(), "{}: got {outcome:?}", case.opcode);
        drop(armed);
        let mut next = Client::connect(server.addr()).expect("connect");
        (case.after)(&mut next);
        let _ = next.bye(4);
        server.shutdown();
    }
}

#[test]
fn dropped_batch_still_answers_every_fetch_correctly() {
    let _serial = serial();
    let server = server(4, 10.0);
    let addr = server.addr();
    let armed = arm("pir.batch_drop=1");
    // The first sweep is dropped by the fault plan; the batcher degrades
    // to per-query retries and every client still gets the right bytes.
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let index = t * 1000;
                let response = client.pir_fetch(t, index).expect("round trip");
                let _ = client.bye(t);
                (index, response)
            })
        })
        .collect();
    for h in handles {
        let (index, response) = h.join().expect("fetch thread");
        match response {
            Response::Record(bytes) => {
                assert_eq!(
                    bytes,
                    tdf_serve::pir_record(0xBEEF, 32, index as usize),
                    "index {index}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    drop(armed);
    server.shutdown();
}

/// A fused sweep that panics fails its own batch with a typed error and
/// nothing more: no fetch hangs, none gets a wrong record, the leader's
/// thread lives on, and the next fetch is answered exactly. Every fetch
/// runs on a helper thread, so a wedged batcher fails the test at the
/// `recv_timeout` instead of hanging the suite.
#[test]
fn a_panicking_sweep_fails_its_batch_and_frees_the_batcher() {
    use std::sync::{mpsc, Arc, Barrier};
    use std::time::Duration;
    use tdf_pir::store::Database;
    use tdf_serve::{PirBatcher, SweepFailed};

    let _serial = serial();
    // 2^17 records are 2,048 mask words, enough for the sweep to reach
    // the pool, which the helpers pin open even on a one-core host.
    let db = Arc::new(Database::from_fn(1 << 17, 32, |i, rec| {
        rec.copy_from_slice(&tdf_serve::pir_record(7, 32, i))
    }));
    let batcher = Arc::new(PirBatcher::new(7, 50, 64));
    type Answer = Result<Vec<u8>, SweepFailed>;
    let fetch_all = |indices: &[usize]| -> Vec<(usize, Answer)> {
        let (tx, rx) = mpsc::channel();
        let barrier = Arc::new(Barrier::new(indices.len()));
        let helpers: Vec<_> = indices
            .iter()
            .map(|&index| {
                let (db, batcher) = (Arc::clone(&db), Arc::clone(&batcher));
                let (barrier, tx) = (Arc::clone(&barrier), tx.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    let answer = par::with_cores(4, || {
                        par::with_threads(4, || batcher.try_fetch(&db, index))
                    });
                    let _ = tx.send((index, answer));
                })
            })
            .collect();
        let answers = indices
            .iter()
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(10))
                    .expect("every fetch must be answered: the batcher is wedged")
            })
            .collect();
        // Every helper answered, so none is blocked: joining proves that
        // none of them, the leader included, unwound.
        for h in helpers {
            h.join().expect("a fetching thread panicked");
        }
        answers
    };

    let armed = arm("par.worker_panic=1@1");
    let answers = fetch_all(&[3, 70_000, 131_071]);
    drop(armed);
    let mut failed = 0;
    for (index, answer) in answers {
        match answer {
            Ok(record) => assert_eq!(record, db.record(index), "index {index}"),
            Err(e) => {
                assert!(e.message.contains("pooled worker"), "got {e}");
                failed += 1;
            }
        }
    }
    assert!(failed >= 1, "the injected worker death must fail its batch");

    // No plan: the batcher is free and answers exactly.
    let after = fetch_all(&[9]);
    assert_eq!(after.len(), 1);
    assert_eq!(after[0].1, Ok(db.record(9).to_vec()));
}

#[test]
fn concurrent_pir_fetches_coalesce_into_fused_sweeps() {
    let _serial = serial();
    let before = obs::level();
    obs::set_level(1);
    obs::reset();
    let server = Server::start(ServerConfig {
        rows: 50,
        seed: 0xBEEF,
        workers: 16,
        session: SessionConfig {
            epsilon_per_query: 1.0,
            budget: 10.0,
            seed: 0xBEEF,
            min_query_set: 2,
            max_overlap: usize::MAX,
            max_rows: 0,
        },
        // A wide admission window so simultaneous fetches land in one
        // leader's batch even on a loaded CI machine.
        pir_batch_window_ms: 150,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
    let handles: Vec<_> = (0..8u64)
        .map(|t| {
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                let index = t * 300;
                let response = client.pir_fetch(t, index).expect("round trip");
                let _ = client.bye(t);
                (index, response)
            })
        })
        .collect();
    for h in handles {
        let (index, response) = h.join().expect("fetch thread");
        match response {
            Response::Record(bytes) => {
                assert_eq!(bytes, tdf_serve::pir_record(0xBEEF, 32, index as usize));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    server.shutdown();
    let snap = obs::snapshot();
    let widest = snap.gauge("serve.pir.batch_max");
    let answers = snap.counter("serve.pir.answers");
    obs::set_level(before);
    assert_eq!(answers, 8);
    assert!(
        widest >= 2,
        "8 simultaneous fetches through a 150 ms window must coalesce, \
         widest batch was {widest}"
    );
}

#[test]
fn slow_clients_are_evicted_at_the_read_deadline() {
    let _serial = serial();
    let before_level = obs::level();
    obs::set_level(1);
    obs::reset();
    let server = Server::start(ServerConfig {
        rows: 300,
        seed: 0xBEEF,
        workers: 2,
        read_deadline_ms: 60,
        session: SessionConfig {
            epsilon_per_query: 1.0,
            budget: 100.0,
            seed: 0xBEEF,
            min_query_set: 2,
            max_overlap: usize::MAX,
            max_rows: 0,
        },
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut idler = Client::connect(server.addr()).expect("connect");
    assert!(matches!(
        idler.query(1, SQL).unwrap(),
        Response::Perturbed(_)
    ));
    // Stop sending. The worker's read deadline fires and reclaims the
    // connection; the idler's next round trip fails cleanly.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        std::thread::sleep(std::time::Duration::from_millis(100));
        if idler.query(1, SQL).is_err() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "slow client was never evicted"
        );
    }
    // An actively-sending client on the same server is unaffected.
    let mut active = Client::connect(server.addr()).expect("connect");
    assert!(matches!(
        active.query(2, SQL).unwrap(),
        Response::Perturbed(_)
    ));
    let _ = active.bye(2);
    server.shutdown();
    let snap = obs::snapshot();
    obs::set_level(before_level);
    assert!(
        snap.counter("serve.slow_evictions") >= 1,
        "eviction must be observable"
    );
}

fn expect_refused(response: Response, want: RefusalReason) {
    match response {
        Response::Refused { reason, .. } => assert_eq!(reason, want),
        other => panic!("expected a {want:?} refusal, got {other:?}"),
    }
}

/// One scripted session touching every outcome of every opcode pins the
/// exact value of each `serve.*` request counter, and one
/// `serve.request_ns` sample per non-BYE request.
#[test]
fn every_opcode_outcome_is_counted_exactly_once() {
    let _serial = serial();
    let before = obs::level();
    obs::set_level(1);
    obs::reset();
    let server = Server::start(ServerConfig {
        rows: 400,
        seed: 2007,
        workers: 2,
        session: SessionConfig {
            epsilon_per_query: 1.0,
            budget: 3.0,
            seed: 2007,
            min_query_set: 2,
            max_overlap: 300,
            max_rows: 0,
        },
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr()).expect("connect");

    // QUERY: three answers spend user 1's 3ε; the (near-)disjoint fourth
    // passes the tracker check and hits the budget wall.
    for sql in [
        "SELECT COUNT(*) FROM t WHERE weight < 78",
        "SELECT COUNT(*) FROM t WHERE weight >= 78",
        "SELECT AVG(blood_pressure) FROM t WHERE weight < 78",
    ] {
        let r = client.query(1, sql).unwrap();
        assert!(matches!(r, Response::Perturbed(_)), "{sql}: {r:?}");
    }
    expect_refused(
        client
            .query(1, "SELECT COUNT(*) FROM t WHERE weight >= 78")
            .unwrap(),
        RefusalReason::Budget,
    );
    // QUERY: one answer for user 2, then a nearly identical set trips
    // the tracker defence, then a parse error.
    let r = client
        .query(2, "SELECT AVG(weight) FROM t WHERE height >= 150")
        .unwrap();
    assert!(matches!(r, Response::Perturbed(_)), "{r:?}");
    expect_refused(
        client
            .query(2, "SELECT AVG(weight) FROM t WHERE height >= 151")
            .unwrap(),
        RefusalReason::Tracker,
    );
    assert!(matches!(
        client.query(2, "SELEKT nope").unwrap(),
        Response::Error(_)
    ));
    // PIR: one record, one index past the end.
    assert!(matches!(
        client.pir_fetch(3, 7).unwrap(),
        Response::Record(_)
    ));
    assert!(matches!(
        client.pir_fetch(3, 1 << 40).unwrap(),
        Response::Error(_)
    ));
    // APPEND: 40 rows, then one over the per-request cap.
    assert_eq!(client.append(1, 40).unwrap(), Response::Exact(440.0));
    assert!(matches!(
        client.append(1, u32::MAX).unwrap(),
        Response::Error(_)
    ));
    // SEAL freezes the 40 appended rows as segment 2.
    assert_eq!(client.seal(1).unwrap(), Response::Exact(2.0));
    // DISGUISE and RESTORE: each once, then once in the wrong state.
    assert!(matches!(client.disguise(5).unwrap(), Response::Exact(_)));
    expect_refused(client.disguise(5).unwrap(), RefusalReason::Policy);
    assert!(matches!(client.restore(5).unwrap(), Response::Exact(_)));
    expect_refused(client.restore(5).unwrap(), RefusalReason::Policy);
    assert_eq!(client.bye(1).unwrap(), Response::Bye);
    server.shutdown();

    let snap = obs::snapshot();
    obs::set_level(before);
    let expected = [
        // 7 QUERY + 2 APPEND + 1 SEAL + 2 DISGUISE + 2 RESTORE.
        ("serve.requests", 14),
        ("serve.pir.requests", 2),
        // 4 QUERY + APPEND + SEAL + DISGUISE + RESTORE.
        ("serve.answers", 8),
        ("serve.pir.answers", 1),
        ("serve.parse_errors", 1),
        ("serve.pir.range_errors", 1),
        ("serve.append_errors", 1),
        ("serve.disguise_errors", 0),
        ("serve.refused.budget", 1),
        ("serve.refused.tracker", 1),
        ("serve.refused.policy", 2),
        ("serve.refused.deadline", 0),
        ("serve.refused.other", 0),
        ("serve.refused.draining", 0),
        ("serve.appends", 1),
        ("serve.append_rows", 40),
        ("serve.seals", 1),
        ("serve.disguises", 1),
        ("serve.restores", 1),
        ("serve.faults.partial_response", 0),
    ];
    for (name, want) in expected {
        assert_eq!(snap.counter(name), want, "{name}");
    }
    let samples = snap.histogram("serve.request_ns").map_or(0, |h| h.count);
    assert_eq!(
        samples, 16,
        "one serve.request_ns sample per non-BYE request"
    );
}
