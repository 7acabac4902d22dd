//! End-to-end server tests over real sockets: concurrent budget
//! determinism, draining shutdown, PIR, ingest and disguise. Tests that
//! install a fault plan or read obs counters live in `tests/faults.rs`,
//! a serial binary of their own.

use tdf_serve::{Client, RefusalReason, Response, Server, ServerConfig, SessionConfig};

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

/// One hammering run: `clients` concurrent connections all spending the
/// budget of the same user. Returns (sorted answered values, refusals).
fn hammer(clients: usize, queries_each: usize) -> (Vec<u64>, usize) {
    let server = server(clients, 5.0);
    let addr = server.addr();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut answered = Vec::new();
                let mut refused = 0usize;
                for _ in 0..queries_each {
                    match client.query(7, SQL).expect("round trip") {
                        Response::Perturbed(v) => answered.push(v.to_bits()),
                        Response::Refused { reason, .. } => {
                            assert_eq!(reason, RefusalReason::Budget);
                            refused += 1;
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
                let _ = client.bye(7);
                (answered, refused)
            })
        })
        .collect();
    let mut answered = Vec::new();
    let mut refused = 0usize;
    for h in handles {
        let (a, r) = h.join().expect("client thread");
        answered.extend(a);
        refused += r;
    }
    server.shutdown();
    answered.sort_unstable();
    (answered, refused)
}

#[test]
fn concurrent_budget_hammering_is_deterministic() {
    // 6 clients × 4 queries on one user with a 5ε budget: exactly 5
    // answers and 19 budget refusals, in any interleaving — admissions
    // are serialised under the user's session lock.
    let (answers_a, refused_a) = hammer(6, 4);
    assert_eq!(answers_a.len(), 5);
    assert_eq!(refused_a, 19);
    // And the *noise values themselves* are the same multiset on a rerun
    // with a different interleaving: the per-user stream draws once per
    // answered query, whoever's connection carried it.
    let (answers_b, refused_b) = hammer(6, 4);
    assert_eq!(answers_a, answers_b);
    assert_eq!(refused_a, refused_b);
}

#[test]
fn sessions_are_isolated_per_user() {
    let server = server(2, 2.0);
    let mut client = Client::connect(server.addr()).expect("connect");
    // User 100 exhausts their own budget...
    for _ in 0..2 {
        assert!(matches!(
            client.query(100, SQL).unwrap(),
            Response::Perturbed(_)
        ));
    }
    assert!(client.query(100, SQL).unwrap().is_refused());
    // ...which spends nothing of user 101's.
    assert!(matches!(
        client.query(101, SQL).unwrap(),
        Response::Perturbed(_)
    ));
    server.shutdown();
}

#[test]
fn bye_is_acknowledged_and_shutdown_does_not_hang_on_idle_connections() {
    let server = server(2, 10.0);
    let mut polite = Client::connect(server.addr()).expect("connect");
    assert!(matches!(
        polite.query(1, SQL).unwrap(),
        Response::Perturbed(_)
    ));
    assert_eq!(polite.bye(1).unwrap(), Response::Bye);
    // This client holds its connection open with no BYE; shutdown must
    // still complete (it severs the read half) within the test timeout.
    let mut rude = Client::connect(server.addr()).expect("connect");
    assert!(matches!(
        rude.query(2, SQL).unwrap(),
        Response::Perturbed(_)
    ));
    server.shutdown();
    // The rude client's next round trip fails cleanly — an error, not a
    // fabricated answer.
    assert!(rude.query(2, SQL).is_err());
}

#[test]
fn pir_fetch_round_trips_the_exact_record() {
    let server = server(2, 10.0);
    let mut client = Client::connect(server.addr()).expect("connect");
    for index in [0u64, 1, 63, 64, 4095] {
        match client.pir_fetch(9, index).expect("round trip") {
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
    let _ = client.bye(9);
    server.shutdown();
}

/// The admission window is an upper bound: a lone connection's fetch
/// cannot be joined by any other, so it is swept at once instead of
/// after the 10 s window.
#[test]
fn a_lone_connection_is_not_held_for_the_admission_window() {
    let server = Server::start(ServerConfig {
        workers: 2,
        pir_batch_window_ms: 10_000,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.addr()).expect("connect");
    for index in [17u64, 4000] {
        let start = std::time::Instant::now();
        let response = client.pir_fetch(3, index).expect("round trip");
        let took = start.elapsed();
        assert_eq!(
            response,
            Response::Record(tdf_serve::pir_record(0x7DF, 32, index as usize))
        );
        assert!(
            took < std::time::Duration::from_secs(1),
            "fetch took {took:?}"
        );
    }
    let _ = client.bye(3);
    server.shutdown();
}

#[test]
fn pir_fetch_out_of_range_is_a_typed_error() {
    let server = server(2, 10.0);
    let mut client = Client::connect(server.addr()).expect("connect");
    match client.pir_fetch(9, 4096).expect("round trip") {
        Response::Error(message) => {
            assert!(
                message.contains("out of range") && message.contains("4096"),
                "got {message:?}"
            );
        }
        other => panic!("unexpected {other:?}"),
    }
    // The connection survives the refused fetch.
    assert!(matches!(
        client.pir_fetch(9, 5).expect("round trip"),
        Response::Record(_)
    ));
    let _ = client.bye(9);
    server.shutdown();
}

#[test]
fn append_and_seal_grow_the_served_population() {
    let server = server(2, 50.0);
    let mut client = Client::connect(server.addr()).expect("connect");
    // 300 seed rows, sealed as segment 1 at startup.
    assert_eq!(client.seal(1).unwrap(), Response::Exact(1.0));
    // Two appends land in the tail; sealing freezes them as segment 2.
    assert_eq!(client.append(1, 40).unwrap(), Response::Exact(340.0));
    assert_eq!(client.append(1, 10).unwrap(), Response::Exact(350.0));
    assert_eq!(client.seal(1).unwrap(), Response::Exact(2.0));
    // The appended rows are immediately queryable.
    match client.query(1, "SELECT COUNT(*) FROM t").unwrap() {
        Response::Perturbed(_) => {}
        other => panic!("unexpected {other:?}"),
    }
    let _ = client.bye(1);
    server.shutdown();
}

#[test]
fn append_chunking_does_not_change_the_population() {
    // Same totals via different APPEND/SEAL interleavings: record content
    // is deterministic per global row index, and segmented evaluation is
    // bit-identical regardless of segmentation — so the same user's noise
    // stream yields bit-equal answers on both servers.
    let sql = "SELECT AVG(weight) FROM t WHERE height >= 150";
    let run = |chunks: &[u32]| {
        let server = server(2, 50.0);
        let mut client = Client::connect(server.addr()).expect("connect");
        for &c in chunks {
            match client.append(5, c).unwrap() {
                Response::Exact(_) => {}
                other => panic!("unexpected {other:?}"),
            }
            assert!(matches!(client.seal(5).unwrap(), Response::Exact(_)));
        }
        let answer = client.query(5, sql).unwrap();
        let _ = client.bye(5);
        server.shutdown();
        answer
    };
    let a = run(&[60]);
    let b = run(&[25, 25, 10]);
    assert_eq!(a, b, "population must not depend on append chunking");
    assert!(matches!(a, Response::Perturbed(_)), "{a:?}");
}

#[test]
fn oversized_append_is_a_typed_error() {
    let server = server(2, 10.0);
    let mut client = Client::connect(server.addr()).expect("connect");
    match client.append(1, u32::MAX).unwrap() {
        Response::Error(message) => {
            assert!(message.contains("cap"), "got {message:?}");
        }
        other => panic!("unexpected {other:?}"),
    }
    // The connection and the population survive the refused append.
    assert_eq!(client.append(1, 5).unwrap(), Response::Exact(305.0));
    let _ = client.bye(1);
    server.shutdown();
}

#[test]
fn disguise_and_restore_round_trip_over_the_wire() {
    let server = server(2, 10.0);
    let mut client = Client::connect(server.addr()).expect("connect");
    // 300 ledger rows round-robined over 16 owners: owner 5 holds 19.
    assert_eq!(client.disguise(5).unwrap(), Response::Exact(19.0));
    // Double-disguise is a typed policy refusal, not a transport error.
    match client.disguise(5).unwrap() {
        Response::Refused { reason, message } => {
            assert_eq!(reason, RefusalReason::Policy);
            assert!(message.contains("already disguised"), "got {message:?}");
        }
        other => panic!("unexpected {other:?}"),
    }
    // Restore hands the same rows back, exactly once.
    assert_eq!(client.restore(5).unwrap(), Response::Exact(19.0));
    match client.restore(5).unwrap() {
        Response::Refused { reason, .. } => assert_eq!(reason, RefusalReason::Policy),
        other => panic!("unexpected {other:?}"),
    }
    // A user owning no ledger rows cannot unsubscribe from it.
    match client.disguise(999).unwrap() {
        Response::Refused { reason, .. } => assert_eq!(reason, RefusalReason::Policy),
        other => panic!("unexpected {other:?}"),
    }
    // The query path is untouched by ledger traffic on the same socket.
    assert!(matches!(
        client.query(5, SQL).unwrap(),
        Response::Perturbed(_)
    ));
    let _ = client.bye(5);
    server.shutdown();
}

#[test]
fn disguise_state_survives_a_server_restart_through_the_wal() {
    let wal = std::env::temp_dir().join(format!(
        "tdf_serve_restart_{}_{:x}.wal",
        std::process::id(),
        0xD15Cu32
    ));
    let _ = std::fs::remove_file(&wal);
    let cfg = || ServerConfig {
        rows: 300,
        seed: 0xBEEF,
        workers: 2,
        disguise_wal: Some(wal.clone()),
        session: SessionConfig {
            epsilon_per_query: 1.0,
            budget: 10.0,
            seed: 0xBEEF,
            min_query_set: 2,
            max_overlap: usize::MAX,
            max_rows: 0,
        },
        ..ServerConfig::default()
    };
    let server = Server::start(cfg()).expect("first server starts");
    let mut client = Client::connect(server.addr()).expect("connect");
    assert_eq!(client.disguise(3).unwrap(), Response::Exact(19.0));
    let _ = client.bye(3);
    server.shutdown();
    // A new process image on the same WAL path recovers the committed
    // disguise: user 3 is still unsubscribed, and their restore returns
    // exactly the journalled rows.
    let server = Server::start(cfg()).expect("second server starts");
    let mut client = Client::connect(server.addr()).expect("connect");
    match client.disguise(3).unwrap() {
        Response::Refused { reason, .. } => assert_eq!(reason, RefusalReason::Policy),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(client.restore(3).unwrap(), Response::Exact(19.0));
    let _ = client.bye(3);
    server.shutdown();
    let _ = std::fs::remove_file(&wal);
}

#[test]
fn background_compaction_is_transparent_to_clients() {
    // Two identical servers, one with the background compactor on:
    // identical APPEND/SEAL/QUERY scripts must yield identical responses
    // — global row indices and query answers never shift while segments
    // merge underneath the write lock.
    let cfg = |compact_min: usize| ServerConfig {
        rows: 64,
        seed: 0x5EA1,
        workers: 2,
        session: SessionConfig {
            epsilon_per_query: 1.0,
            budget: 100.0,
            seed: 0x5EA1,
            min_query_set: 2,
            max_overlap: usize::MAX,
            max_rows: 0,
        },
        compact_min,
        ..ServerConfig::default()
    };
    let run = |compact_min: usize| -> Vec<u64> {
        let server = Server::start(cfg(compact_min)).expect("server starts");
        let mut client = Client::connect(server.addr()).expect("connect");
        let mut transcript = Vec::new();
        for round in 0..6u64 {
            // APPEND answers the new global row count — stable indices.
            match client.append(1, 32).expect("append") {
                Response::Exact(rows) => transcript.push(rows.to_bits()),
                other => panic!("unexpected append response {other:?}"),
            }
            // SEAL answers the segment count, which legitimately races
            // the compactor — issued but not compared.
            client.seal(1).expect("seal");
            // A fresh user per round: one deterministic noise draw each.
            match client.query(100 + round, SQL).expect("query") {
                Response::Perturbed(v) => transcript.push(v.to_bits()),
                other => panic!("unexpected query response {other:?}"),
            }
        }
        if compact_min > 0 {
            // 64 + 6×32 = 256 rows in seven under-floor segments: once
            // the compactor has caught up with the final seal, at most
            // one merged run plus one straggler can remain.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            loop {
                match client.seal(1).expect("probe seal") {
                    Response::Exact(segments) if segments <= 2.0 => break,
                    Response::Exact(_) => {}
                    other => panic!("unexpected probe response {other:?}"),
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "compactor never caught up"
                );
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
        // Queries keep answering identically after compaction.
        match client.query(50, SQL).expect("post query") {
            Response::Perturbed(v) => transcript.push(v.to_bits()),
            other => panic!("unexpected post response {other:?}"),
        }
        let _ = client.bye(1);
        server.shutdown();
        transcript
    };
    assert_eq!(run(0), run(200), "compaction must be client-invisible");
}
