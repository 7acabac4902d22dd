//! The TCP server: accept loop, connection queue, worker pool, draining
//! shutdown, and the `tdf-obs` metrics surface.
//!
//! Architecture: one accept thread pushes connections onto a queue
//! (depth is exported as `serve.queue_depth`); a fixed pool of
//! connection workers — sized by [`par::measured_cores`] unless
//! overridden — pops connections and serves each one to completion.
//! Sessions are keyed by the request's claimed user id, *not* by
//! connection, so many concurrent connections can act for one user; each
//! user's admissions are serialised under that user's session lock,
//! which is what makes refusal sequences deterministic under any client
//! interleaving (see `session.rs`). The session map itself is sharded
//! by `splitmix64(user)` so unrelated users never contend on lookup.
//!
//! **Ingest.** The served population is a [`SegmentedDataset`]: `APPEND`
//! grows the mutable tail with records deterministic per global row
//! index, `SEAL` freezes the tail into a sealed segment that may spill
//! to disk under the `TDF_SEGCACHE` budget, and queries stream the
//! segments under a read lock (`evaluate_segmented`, the one query
//! evaluator that also answers an in-memory `Dataset`).
//!
//! **Shutdown** flips the draining flag, wakes the accept loop with a
//! self-connection, severs the *read* half of every active connection
//! (unblocking workers parked in a read without cutting a response in
//! flight — the write half stays intact), and joins every thread.
//! Requests already being processed complete and their responses are
//! written whole; requests arriving after the flag flips are refused
//! with [`RefusalReason::Draining`].
//!
//! **Requests.** Every opcode takes one pipeline: decode, admit (the one
//! draining check), execute, count under the opcode's static names
//! (`OpCounters`), encode, write. BYE skips admission and counting.
//! Fault site: `serve.partial_response` cuts that one write halfway and
//! severs the socket, for any opcode, so a client can never mistake a
//! cut write for an answer. Execute runs before the write, so a cut
//! APPEND, SEAL, DISGUISE or RESTORE is still committed, exactly once: a
//! retry sees it through a typed refusal or the row count.
//!
//! **PIR.** The server also holds a seed-deterministic PIR record store;
//! `PIR_FETCH` requests from any number of connections funnel through a
//! [`crate::batch::PirBatcher`], which coalesces whatever is pending
//! into one fused multi-lane sweep per admission window (see
//! `tdf_pir::batch`).

use crate::batch::PirBatcher;
use crate::protocol::{
    encode_response, read_request, write_frame, RefusalReason, Request, Response,
};
use crate::session::{SessionConfig, UserSession};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};
use tdf_microdata::synth::{patients, PatientConfig};
use tdf_microdata::{SegmentedDataset, Value};
use tdf_pir::store::Database;

/// Power-of-two shard count for the per-user session map. One global
/// map behind one mutex serialises *session lookup* across every
/// connection worker even though distinct users never contend on state;
/// splitmix64-sharding spreads lookups so only same-shard users queue.
const USER_SHARDS: usize = 16;

/// Hard cap on one APPEND request, so a hostile count cannot make the
/// server synthesise rows unboundedly while holding the write lock.
const MAX_APPEND: u32 = 1 << 20;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Rows in the synthetic patient population the server exposes.
    pub rows: usize,
    /// Master seed (dataset synthesis and per-user noise streams).
    pub seed: u64,
    /// Connection workers; 0 sizes the pool by the measured core count.
    pub workers: usize,
    /// Per-user admission and budget parameters (its `seed` is
    /// overwritten by the server's master seed).
    pub session: SessionConfig,
    /// Records in the PIR store (seed-deterministic content).
    pub pir_records: usize,
    /// Bytes per PIR record.
    pub pir_record_size: usize,
    /// Batch-admission window in milliseconds: how long the first
    /// pending PIR fetch waits for others to coalesce before sweeping.
    pub pir_batch_window_ms: u64,
    /// Maximum lanes per fused sweep.
    pub pir_batch_max: usize,
    /// Row floor for background segment compaction: after each SEAL, a
    /// compactor thread merges runs of adjacent sealed segments smaller
    /// than this ([`SegmentedDataset::compact`]). `0` disables the
    /// thread entirely. Defaults from `TDF_COMPACT_MIN` (unset = 0).
    pub compact_min: usize,
    /// Owners in the disguise ledger (rows round-robin across user ids
    /// `1..=disguise_users`); DISGUISE/RESTORE act on this ledger.
    pub disguise_users: u64,
    /// Journal path for the disguise engine. `None` uses a per-instance
    /// temp file removed on shutdown; point it at a real path to make
    /// disguises survive a server restart.
    pub disguise_wal: Option<std::path::PathBuf>,
    /// Per-connection read deadline in milliseconds: a client that keeps
    /// a worker parked in a read longer than this is evicted (counted as
    /// `serve.slow_evictions`). `0` disables the deadline. Defaults from
    /// `TDF_READ_DEADLINE_MS` (unset = 30 000).
    pub read_deadline_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            rows: 1000,
            seed: 0x7DF,
            workers: 0,
            session: SessionConfig::default(),
            pir_records: 4096,
            pir_record_size: 32,
            pir_batch_window_ms: 1,
            pir_batch_max: 64,
            compact_min: std::env::var("TDF_COMPACT_MIN")
                .ok()
                .and_then(|s| s.trim().parse::<usize>().ok())
                .unwrap_or(0),
            disguise_users: 16,
            disguise_wal: None,
            read_deadline_ms: std::env::var("TDF_READ_DEADLINE_MS")
                .ok()
                .and_then(|s| s.trim().parse::<u64>().ok())
                .unwrap_or(30_000),
        }
    }
}

/// The content of PIR record `i` under `seed` — the reference the store
/// is built from, exposed so clients and tests can verify fetched bytes
/// without downloading the database.
pub fn pir_record(seed: u64, record_size: usize, i: usize) -> Vec<u8> {
    let mut out = vec![0u8; record_size];
    fill_pir_record(seed, i, &mut out);
    out
}

fn fill_pir_record(seed: u64, i: usize, rec: &mut [u8]) {
    let mut state = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for chunk in rec.chunks_mut(8) {
        let word = rngkit::splitmix64(&mut state).to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

struct Shared {
    /// The served population: sealed (spillable) segments + mutable
    /// tail. Queries stream under the read lock; APPEND/SEAL take the
    /// write lock.
    data: RwLock<SegmentedDataset>,
    /// Master seed — per-row append synthesis derives from it.
    seed: u64,
    pir: Database,
    batcher: PirBatcher,
    session_cfg: SessionConfig,
    /// Session map, sharded by `splitmix64(user)`. Each user's budget
    /// stays single-writer under its own session mutex; the shards only
    /// narrow the lookup critical section.
    users: [Mutex<HashMap<u64, Arc<Mutex<UserSession>>>>; USER_SHARDS],
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    /// Background-compaction row floor (0 = no compactor thread) and the
    /// seal counter the compactor sleeps on.
    compact_min: usize,
    compact_signal: (Mutex<u64>, Condvar),
    draining: AtomicBool,
    /// Read-half clones of every connection currently being served, so
    /// shutdown can unblock workers parked in a blocking read.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    /// The disguise ledger: per-user reversible disguise/restore
    /// transactions, WAL-backed. Single-writer by design — disguises are
    /// rare, whole-user mutations; queries never touch this lock.
    disguise: Mutex<tdf_disguise::DisguiseEngine>,
    /// Set when the journal lives in a per-instance temp file the server
    /// owns (and removes on shutdown).
    disguise_wal_owned: Option<std::path::PathBuf>,
    /// Per-connection read deadline (0 = none).
    read_deadline_ms: u64,
}

impl Shared {
    fn session_for(&self, user: u64) -> Arc<Mutex<UserSession>> {
        let mut state = user;
        let shard = (rngkit::splitmix64(&mut state) as usize) & (USER_SHARDS - 1);
        let mut users = lock(&self.users[shard]);
        Arc::clone(users.entry(user).or_insert_with(|| {
            obs::count("serve.sessions", 1);
            Arc::new(Mutex::new(UserSession::new(&self.session_cfg, user)))
        }))
    }
}

/// The synthetic patient record at global row `index` under `seed` —
/// deterministic in `(seed, index)` alone, so the served population is
/// independent of how APPENDs are chunked or interleaved with SEALs.
fn synth_row(seed: u64, index: u64) -> Vec<Value> {
    let mut state = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let row_seed = rngkit::splitmix64(&mut state);
    patients(&PatientConfig {
        n: 1,
        seed: row_seed,
        ..Default::default()
    })
    .row(0)
}

/// A running server handle. Always shut down explicitly; dropping the
/// handle leaks the worker threads for the process lifetime.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    compactor: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds an ephemeral local port, synthesises the dataset and starts
    /// the accept loop plus the connection-worker pool.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let mut session_cfg = cfg.session;
        session_cfg.seed = cfg.seed;
        // The initial population is sealed as one segment, so the served
        // table is segmented from the first query — and evaluation stays
        // bit-identical to the old monolithic path (the golden transcript
        // pins this).
        let population = PatientConfig {
            n: cfg.rows,
            seed: cfg.seed,
            ..Default::default()
        };
        let initial = patients(&population);
        // The disguise ledger: the same synthetic population, owner-
        // labelled, with a WAL so disguises are atomic across crashes.
        // A configured journal path makes them survive restarts; the
        // default is a per-instance temp file removed on shutdown.
        let (wal_path, wal_owned) = match &cfg.disguise_wal {
            Some(p) => (p.clone(), None),
            None => {
                static WAL_SEQ: AtomicU64 = AtomicU64::new(0);
                let p = std::env::temp_dir().join(format!(
                    "tdf_serve_disguise_{}_{}.wal",
                    std::process::id(),
                    WAL_SEQ.fetch_add(1, Ordering::Relaxed),
                ));
                let _ = std::fs::remove_file(&p);
                (p.clone(), Some(p))
            }
        };
        let ledger = tdf_disguise::owned_patients(&population, cfg.disguise_users.max(1));
        let (disguise, _recovery) = tdf_disguise::DisguiseEngine::open(
            &wal_path,
            ledger,
            tdf_disguise::DisguisePolicy::patients_default(),
            cfg.seed,
        )
        .map_err(|e| io::Error::other(format!("disguise journal {}: {e}", wal_path.display())))?;
        let shared = Arc::new(Shared {
            data: RwLock::new(SegmentedDataset::from_dataset(&initial, cfg.rows.max(1))),
            seed: cfg.seed,
            pir: Database::from_fn(cfg.pir_records, cfg.pir_record_size, |i, rec| {
                fill_pir_record(cfg.seed, i, rec)
            }),
            batcher: PirBatcher::new(cfg.seed, cfg.pir_batch_window_ms, cfg.pir_batch_max),
            session_cfg,
            users: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            compact_min: cfg.compact_min,
            compact_signal: (Mutex::new(0), Condvar::new()),
            draining: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            disguise: Mutex::new(disguise),
            disguise_wal_owned: wal_owned,
            read_deadline_ms: cfg.read_deadline_ms,
        });
        let worker_count = if cfg.workers == 0 {
            par::measured_cores().max(2)
        } else {
            cfg.workers.max(1)
        };
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tdf-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn tdf-serve worker")
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tdf-serve-accept".to_owned())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn tdf-serve accept loop")
        };
        let compactor = (cfg.compact_min > 0).then(|| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tdf-serve-compactor".to_owned())
                .spawn(move || compactor_loop(&shared))
                .expect("spawn tdf-serve compactor")
        });
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            workers,
            compactor,
        })
    }

    /// The bound address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: refuse new work, drain in-flight requests,
    /// join every thread.
    pub fn shutdown(mut self) {
        self.shared.draining.store(true, Ordering::Release);
        // Wake the accept loop out of its blocking accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.shared.queue_cv.notify_all();
        // Unblock workers parked in a read. Only the read half is severed:
        // a response currently being written still goes out whole.
        {
            let conns = lock(&self.shared.conns);
            for stream in conns.values() {
                let _ = stream.shutdown(std::net::Shutdown::Read);
            }
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // The compactor re-checks the draining flag whenever it wakes.
        if let Some(compactor) = self.compactor.take() {
            self.shared.compact_signal.1.notify_all();
            let _ = compactor.join();
        }
        // A per-instance temp journal dies with the server; a configured
        // path is durable state and stays.
        if let Some(path) = &self.shared.disguise_wal_owned {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Background segment compaction: sleeps on the seal counter, and after
/// each burst of SEALs merges runs of adjacent under-floor sealed
/// segments under the data write lock. Clients never observe a row move
/// — compaction preserves global row order and indices — only the
/// segment count dropping. Failures (including the injected
/// `segment.compact` crash) leave the dataset exactly as it was.
fn compactor_loop(shared: &Shared) {
    let (pending, cv) = &shared.compact_signal;
    let mut seen = 0u64;
    loop {
        {
            let mut sealed = lock(pending);
            while *sealed == seen && !shared.draining.load(Ordering::Acquire) {
                sealed = cv.wait(sealed).unwrap_or_else(PoisonError::into_inner);
            }
            if shared.draining.load(Ordering::Acquire) {
                return;
            }
            seen = *sealed;
        }
        let mut data = shared.data.write().unwrap_or_else(PoisonError::into_inner);
        match data.compact(shared.compact_min) {
            Ok(report) if report.merged_any() => {
                obs::count("serve.compactions", report.runs.len() as u64);
            }
            Ok(_) => {}
            Err(_) => obs::count("serve.compact_failed", 1),
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        if shared.draining.load(Ordering::Acquire) {
            // The wake-up connection (or a late client): nothing is
            // admitted past this point.
            return;
        }
        let mut queue = lock(&shared.queue);
        queue.push_back(stream);
        obs::gauge_max("serve.queue_depth", queue.len() as u64);
        drop(queue);
        shared.queue_cv.notify_one();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(stream) = queue.pop_front() {
                    break stream;
                }
                if shared.draining.load(Ordering::Acquire) {
                    return;
                }
                queue = shared
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        obs::count("serve.connections", 1);
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            if shared.draining.load(Ordering::Acquire) {
                // This connection was claimed after draining began; give
                // its (refusal) reads a deadline so a silent client can
                // never stall the shutdown join.
                let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
            } else if shared.read_deadline_ms > 0 {
                // Slow-client guard: a worker is a scarce resource, and a
                // client holding a read open (idle keep-alive or a
                // slowloris half-frame) past the deadline is evicted.
                let _ =
                    stream.set_read_timeout(Some(Duration::from_millis(shared.read_deadline_ms)));
            }
            lock(&shared.conns).insert(conn_id, clone);
        }
        // Connection errors (disconnects, malformed frames, injected
        // severs) end that connection only; the worker lives on.
        let _ = serve_connection(stream, shared);
        lock(&shared.conns).remove(&conn_id);
    }
}

/// The static counter names of one opcode. The pipeline counts
/// `requests` for every admitted-or-refused request, then exactly one
/// outcome: the refusal's own `serve.refused.<label>`, `errors` for an
/// error response, or every name in `answers` for an answer.
struct OpCounters {
    requests: &'static str,
    errors: &'static str,
    answers: &'static [&'static str],
}

impl OpCounters {
    /// `None` for BYE, which passes no admission and counts nothing.
    fn of(request: &Request) -> Option<&'static OpCounters> {
        Some(match request {
            Request::Bye { .. } => return None,
            Request::Query { .. } => &OpCounters {
                requests: "serve.requests",
                errors: "serve.parse_errors",
                answers: &["serve.answers"],
            },
            // PIR keeps a counter family of its own: its answers are
            // records, not aggregates.
            Request::PirFetch { .. } => &OpCounters {
                requests: "serve.pir.requests",
                errors: "serve.pir.range_errors",
                answers: &["serve.pir.answers"],
            },
            Request::Append { .. } => &OpCounters {
                requests: "serve.requests",
                errors: "serve.append_errors",
                answers: &["serve.appends", "serve.answers"],
            },
            // SEAL cannot fail; it shares APPEND's ingest error counter.
            Request::Seal { .. } => &OpCounters {
                requests: "serve.requests",
                errors: "serve.append_errors",
                answers: &["serve.seals", "serve.answers"],
            },
            Request::Disguise { .. } => &OpCounters {
                requests: "serve.requests",
                errors: "serve.disguise_errors",
                answers: &["serve.disguises", "serve.answers"],
            },
            Request::Restore { .. } => &OpCounters {
                requests: "serve.requests",
                errors: "serve.disguise_errors",
                answers: &["serve.restores", "serve.answers"],
            },
        })
    }

    fn count_outcome(&self, response: &Response) {
        match response {
            Response::Refused { reason, .. } => obs::count(reason.counter(), 1),
            Response::Error(_) => obs::count(self.errors, 1),
            _ => self.answers.iter().for_each(|name| obs::count(name, 1)),
        }
    }
}

/// Serves one connection to completion: request frames in, response
/// frames out, until BYE, EOF or an I/O error. Every request takes the
/// one pipeline decode → admit → execute → count → encode → write.
fn serve_connection(mut stream: TcpStream, shared: &Shared) -> io::Result<()> {
    loop {
        let request = match read_request(&mut stream) {
            Ok(r) => r,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // During a drain this is the intended 200 ms unblock; in
                // steady state it is the read deadline firing on a slow
                // client, which costs the client its connection.
                if !shared.draining.load(Ordering::Acquire) {
                    obs::count("serve.slow_evictions", 1);
                }
                return Ok(());
            }
            Err(e) => {
                obs::count("serve.protocol_errors", 1);
                return Err(e);
            }
        };
        let started = Instant::now();
        let response = match OpCounters::of(&request) {
            None => execute(shared, request),
            Some(counters) => {
                obs::count(counters.requests, 1);
                let response = if shared.draining.load(Ordering::Acquire) {
                    Response::Refused {
                        reason: RefusalReason::Draining,
                        message: "server is draining for shutdown".to_owned(),
                    }
                } else {
                    execute(shared, request)
                };
                counters.count_outcome(&response);
                response
            }
        };
        let frame = encode_response(&response);
        if faultkit::fire("serve.partial_response") {
            // Injected fault: the server dies mid-write. Send a strict
            // prefix of the frame and sever the socket — the framing
            // guarantees the client sees an I/O error, never a shorter
            // answer that still parses. Execute already ran, so a cut
            // mutation stays committed.
            obs::count("serve.faults.partial_response", 1);
            // Half the frame is a strict prefix: empty for BYE's one byte.
            let cut = frame.len() / 2;
            let _ = write_frame(&mut stream, &frame[..cut]);
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return Ok(());
        }
        write_frame(&mut stream, &frame)?;
        if matches!(response, Response::Bye) {
            return Ok(());
        }
        obs::observe("serve.request_ns", started.elapsed().as_nanos() as u64);
    }
}

/// The execute step: what one admitted request does, as its response.
fn execute(shared: &Shared, request: Request) -> Response {
    match request {
        Request::Bye { .. } => Response::Bye,
        Request::Query { user, sql } => {
            let session = shared.session_for(user);
            let mut session = lock(&session);
            let data = shared.data.read().unwrap_or_else(PoisonError::into_inner);
            session.answer_segmented(&data, &sql)
        }
        // PIR admission charges no ε: the user-privacy dimension protects
        // *which* record is read, not an aggregate. The batcher coalesces
        // concurrent fetches into fused sweeps.
        Request::PirFetch { index, .. } if index >= shared.pir.len() as u64 => {
            Response::Error(format!(
                "record index {index} out of range: PIR store has {} records",
                shared.pir.len()
            ))
        }
        Request::PirFetch { index, .. } => {
            match shared.batcher.try_fetch(&shared.pir, index as usize) {
                Ok(record) => Response::Record(record),
                Err(failed) => Response::Error(failed.to_string()),
            }
        }
        Request::Append { count, .. } if count > MAX_APPEND => Response::Error(format!(
            "append of {count} rows exceeds the per-request cap of {MAX_APPEND}"
        )),
        Request::Append { count, .. } => {
            let mut data = shared.data.write().unwrap_or_else(PoisonError::into_inner);
            let start = data.num_rows() as u64;
            match (0..u64::from(count))
                .try_for_each(|i| data.push_row(synth_row(shared.seed, start + i)))
            {
                Ok(()) => {
                    obs::count("serve.append_rows", u64::from(count));
                    Response::Exact(data.num_rows() as f64)
                }
                Err(e) => Response::Error(format!("append failed: {e}")),
            }
        }
        Request::Seal { .. } => {
            let mut data = shared.data.write().unwrap_or_else(PoisonError::into_inner);
            // Sealing an empty tail is a no-op, not an error: the answer
            // is the sealed-segment count either way.
            data.seal();
            let segments = data.num_segments() as f64;
            drop(data);
            if shared.compact_min > 0 {
                let (pending, cv) = &shared.compact_signal;
                *lock(pending) += 1;
                cv.notify_one();
            }
            Response::Exact(segments)
        }
        Request::Disguise { user } => ledger_response(lock(&shared.disguise).disguise(user)),
        Request::Restore { user } => ledger_response(lock(&shared.disguise).restore(user)),
    }
}

fn ledger_response(result: tdf_disguise::Result<tdf_disguise::DisguiseOutcome>) -> Response {
    match result {
        // The answer is the number of rows re-owned or returned — the
        // client's receipt.
        Ok(outcome) => Response::Exact(outcome.rows as f64),
        // Wrong-state requests are policy refusals, typed on the wire
        // like any other admission refusal.
        Err(
            e @ (tdf_disguise::Error::AlreadyDisguised(_)
            | tdf_disguise::Error::NotDisguised(_)
            | tdf_disguise::Error::NoRows(_)),
        ) => Response::Refused {
            reason: RefusalReason::Policy,
            message: e.to_string(),
        },
        // Crash-stop (exhausted fault budget) and journal failures are
        // server-side errors; the engine refuses further transactions
        // until recovery.
        Err(e) => Response::Error(format!("disguise engine: {e}")),
    }
}

/// Locks `mutex`, recovering the guard if a previous holder panicked.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
