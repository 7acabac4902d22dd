//! The in-process replay: the served population rebuilt from the same
//! seed, and the same op sequence run through each layer's public
//! functions in the same per-user order. It yields the answers every
//! request must get over the wire and, when traced, the per-layer spans
//! and exact work counts.

use crate::ops::{Op, Params, Workload, OWNERS, QUERY_TEMPLATES};
use crate::trace::Tracer;
use rngkit::rngs::StdRng;
use rngkit::SeedableRng;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::time::Instant;
use tdf_disguise::{DisguiseEngine, DisguisePolicy, Journal};
use tdf_microdata::synth::{patients, PatientConfig};
use tdf_microdata::{SegmentedDataset, Value};
use tdf_pir::batch::retrieve_batch;
use tdf_pir::store::Database;
use tdf_querydb::dp::DpPolicy;
use tdf_querydb::engine::{evaluate_segmented_with_limits, QueryLimits};
use tdf_querydb::parser::parse;
use tdf_serve::protocol::{encode_request, encode_response, read_request, Request};
use tdf_serve::{pir_record, PirBatcher, RefusalReason, Response, SessionConfig, UserSession};

/// Exact work counts of a traced replay, over the timed requests only.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// QUERY requests.
    pub queries: u64,
    /// QUERY requests refused (typed).
    pub refused: u64,
    /// Answered sets the overlap checks visited.
    pub history_sets: u64,
    /// Rows the evaluations scanned.
    pub rows_scanned: u64,
    /// Rows in the evaluations' query sets.
    pub rows_matched: u64,
    /// Rows appended.
    pub appended_rows: u64,
    /// Rows rewritten by compactions.
    pub compact_rows: u64,
    /// DISGUISE/RESTORE transactions.
    pub txns: u64,
    /// Journal bytes those transactions appended.
    pub wal_bytes: u64,
    /// Sealed-segment bytes summed over queries (for the mean segment size).
    pub segment_bytes: u64,
    /// Sealed segments summed over queries.
    pub segments: u64,
}

/// The replay's result.
pub struct Replay {
    /// For every op of the sequence, the responses the server may give:
    /// one, except for a SEAL that may race the background compactor.
    pub expected: Vec<Vec<Response>>,
    /// Work counts (traced replays only).
    pub counts: Counts,
    /// Spans (traced replays only).
    pub tracer: Option<Tracer>,
}

/// The record the server appends at global row `index`. This mirrors
/// the server's per-row synthesis, which is deterministic in
/// `(seed, index)`; any drift shows up as failed query checks.
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

/// The served population: the initial segment the server seals at start.
fn initial_population(p: &Params) -> SegmentedDataset {
    let initial = patients(&PatientConfig {
        n: p.initial_rows,
        seed: p.seed,
        ..Default::default()
    });
    SegmentedDataset::from_dataset(&initial, p.initial_rows.max(1))
}

fn append_rows(data: &mut SegmentedDataset, seed: u64, count: u32) -> io::Result<()> {
    let start = data.num_rows() as u64;
    for i in 0..u64::from(count) {
        data.push_row(synth_row(seed, start + i))
            .map_err(io::Error::other)?;
    }
    Ok(())
}

/// Bytes of the sealed segments after the set-up ingest — what the
/// `query_spill` cache budget is a share of.
fn sealed_bytes(p: &Params) -> io::Result<usize> {
    let mut data = initial_population(p);
    for _ in 0..p.ingest_rounds {
        append_rows(&mut data, p.seed, p.initial_rows as u32)?;
        data.seal();
    }
    Ok((0..data.num_segments())
        .map(|i| data.segment_meta(i).bytes)
        .sum())
}

/// The segment-cache budget in bytes: `p.cache_share` of the sealed
/// bytes after the set-up ingest, or `None` when the population stays
/// resident.
pub fn cache_budget(p: &Params) -> io::Result<Option<usize>> {
    p.cache_share
        .map(|share| sealed_bytes(p).map(|bytes| (bytes as f64 * share) as usize))
        .transpose()
}

fn session_config(p: &Params) -> SessionConfig {
    SessionConfig {
        seed: p.seed,
        ..SessionConfig::default()
    }
}

fn request_of(op: &Op) -> Request {
    match *op {
        Op::Query { user, template } => Request::Query {
            user,
            sql: QUERY_TEMPLATES[template].to_owned(),
        },
        Op::Pir { index } => Request::PirFetch { user: 0, index },
        Op::Append { count } => Request::Append { user: 0, count },
        Op::Seal => Request::Seal { user: 0 },
        Op::Disguise { owner } => Request::Disguise { user: owner },
        Op::Restore { owner } => Request::Restore { user: owner },
    }
}

struct Replayer<'a> {
    p: &'a Params,
    data: SegmentedDataset,
    /// Segments each compaction removed, latest last. A SEAL that reaches
    /// the server while its background compactor is `j` seals behind sees
    /// the latest `j` of these on top of the compacted count. The lag has
    /// no bound: APPENDs back to back can keep the compactor off the
    /// write lock for many seals.
    merged: Vec<usize>,
    engine: DisguiseEngine,
    /// Shadow journal the traced replay re-appends each transaction to.
    shadow: Option<Journal>,
    sessions: HashMap<u64, (UserSession, u64)>,
    /// A never-exhausted policy with the session's ranges, for timing
    /// the DP step alone.
    dp: DpPolicy,
    counts: Counts,
    tracer: Option<Tracer>,
}

impl<'a> Replayer<'a> {
    fn new(p: &'a Params, dir: &Path, traced: bool) -> io::Result<Replayer<'a>> {
        let data = initial_population(p);
        let ledger = tdf_disguise::owned_patients(
            &PatientConfig {
                n: p.initial_rows,
                seed: p.seed,
                ..Default::default()
            },
            OWNERS,
        );
        let wal = dir.join("replay.wal");
        let _ = std::fs::remove_file(&wal);
        let (engine, _) =
            DisguiseEngine::open(&wal, ledger, DisguisePolicy::patients_default(), p.seed)
                .map_err(io::Error::other)?;
        let shadow = if traced {
            let path = dir.join("shadow.wal");
            let _ = std::fs::remove_file(&path);
            Some(Journal::open(&path).map_err(io::Error::other)?.0)
        } else {
            None
        };
        let cfg = session_config(p);
        Ok(Replayer {
            p,
            data,
            merged: Vec::new(),
            engine,
            shadow,
            sessions: HashMap::new(),
            dp: DpPolicy::new(cfg.epsilon_per_query, f64::MAX, p.seed)
                .with_range("height", 140.0, 210.0)
                .with_range("weight", 40.0, 160.0)
                .with_range("blood_pressure", 90.0, 220.0),
            counts: Counts::default(),
            tracer: traced.then(|| Tracer::new(Instant::now())),
        })
    }

    /// Replays op `i`; spans and counts are taken when `traced`.
    fn step(&mut self, i: usize, op: &Op, traced: bool) -> io::Result<Vec<Response>> {
        let traced = traced && self.tracer.is_some();
        let req = i as u64;
        if traced {
            let frame = encode_request(&request_of(op));
            let tracer = self.tracer.as_mut().expect("traced");
            let (decoded, _) = tracer.time("protocol.decode", req, None, || {
                read_request(&mut frame.as_slice())
            });
            decoded?;
        }
        let expected = match *op {
            Op::Query { user, template } => vec![self.query(req, user, template, traced)],
            Op::Pir { index } => vec![Response::Record(pir_record(
                self.p.seed,
                self.p.pir_record_size,
                index as usize,
            ))],
            Op::Append { count } => {
                let seed = self.p.seed;
                let data = &mut self.data;
                match self.tracer.as_mut().filter(|_| traced) {
                    Some(t) => {
                        t.time("segment.append", req, None, || {
                            append_rows(data, seed, count)
                        })
                        .0
                    }
                    None => append_rows(data, seed, count),
                }?;
                if traced {
                    self.counts.appended_rows += u64::from(count);
                }
                vec![Response::Exact(self.data.num_rows() as f64)]
            }
            Op::Seal => self.seal(req, traced),
            Op::Disguise { owner } | Op::Restore { owner } => {
                vec![self.disguise(req, owner, matches!(op, Op::Disguise { .. }), traced)?]
            }
        };
        if traced {
            let tracer = self.tracer.as_mut().expect("traced");
            tracer.time("protocol.encode", req, None, || {
                encode_response(&expected[0])
            });
        }
        Ok(expected)
    }

    fn query(&mut self, req: u64, user: u64, template: usize, traced: bool) -> Response {
        let sql = QUERY_TEMPLATES[template];
        let cfg = session_config(self.p);
        let (session, answered) = self
            .sessions
            .entry(user)
            .or_insert_with(|| (UserSession::new(&cfg, user), 0));
        let data = &self.data;
        let Some(tracer) = self.tracer.as_mut().filter(|_| traced) else {
            let response = session.answer_segmented(data, sql);
            *answered += u64::from(!response.is_refused());
            return response;
        };
        let history = *answered;
        let (response, answer) = tracer.time("session.answer", req, None, || {
            session.answer_segmented(data, sql)
        });
        *answered += u64::from(!response.is_refused());
        // Shadow children: the steps the answer ran inside, re-run back
        // to back through their public functions.
        let (query, _) = tracer.time("querydb.parse", req, Some(answer), || parse(sql));
        let query = query.expect("benchmark templates parse");
        let (eval, evaluate) = tracer.time("querydb.evaluate", req, Some(answer), || {
            evaluate_segmented_with_limits(data, &query, &QueryLimits::unlimited())
        });
        let eval = eval.expect("benchmark templates evaluate");
        for idx in 0..data.num_segments() {
            let (pinned, _) = tracer.time("segment.pin", req, Some(evaluate), || data.pin(idx));
            pinned.expect("segment pins");
            self.counts.segment_bytes += data.segment_meta(idx).bytes as u64;
        }
        let dp = &mut self.dp;
        tracer.time("dp.apply", req, Some(answer), || {
            dp.apply_eval(&query, &eval)
        });
        let c = &mut self.counts;
        c.queries += 1;
        c.refused += u64::from(response.is_refused());
        c.rows_scanned += data.num_rows() as u64;
        c.rows_matched += eval.query_set.len() as u64;
        c.segments += data.num_segments() as u64;
        if eval.query_set.len() >= cfg.min_query_set {
            c.history_sets += history;
        }
        response
    }

    fn seal(&mut self, req: u64, traced: bool) -> Vec<Response> {
        let data = &mut self.data;
        match self.tracer.as_mut().filter(|_| traced) {
            Some(t) => t.time("segment.seal", req, None, || data.seal()).0,
            None => data.seal(),
        };
        let mut segments = self.data.num_segments();
        let mut admissible = vec![Response::Exact(segments as f64)];
        for &removed in self.merged.iter().rev() {
            if removed > 0 {
                segments += removed;
                admissible.push(Response::Exact(segments as f64));
            }
        }
        if self.p.compact_min > 0 {
            let floor = self.p.compact_min;
            let data = &mut self.data;
            let report = match self.tracer.as_mut().filter(|_| traced) {
                Some(t) => {
                    t.time("segment.compact", req, None, || data.compact(floor))
                        .0
                }
                None => data.compact(floor),
            }
            .expect("in-memory compaction succeeds");
            self.merged
                .push(report.segments_before - report.segments_after);
            if traced {
                self.counts.compact_rows += report.runs.iter().map(|r| r.rows as u64).sum::<u64>();
            }
        }
        admissible
    }

    fn disguise(
        &mut self,
        req: u64,
        owner: u64,
        disguise: bool,
        traced: bool,
    ) -> io::Result<Response> {
        let wal = self.engine.wal_path().to_path_buf();
        let wal_before = std::fs::metadata(&wal)?.len();
        let owned_before = self.engine.user_rows(owner).len();
        let engine = &mut self.engine;
        let mut txn = || {
            if disguise {
                engine.disguise(owner)
            } else {
                engine.restore(owner)
            }
        };
        let (result, span) = match self.tracer.as_mut().filter(|_| traced) {
            Some(t) => {
                let (r, s) = t.time("disguise.txn", req, None, txn);
                (r, Some(s))
            }
            None => (txn(), None),
        };
        let response = match result {
            // The receipt is the owner's row count in the ledger: the
            // rows a disguise re-owns, the rows a restore gives back.
            Ok(_) if disguise => Response::Exact(owned_before as f64),
            Ok(_) => Response::Exact(self.engine.user_rows(owner).len() as f64),
            Err(
                e @ (tdf_disguise::Error::AlreadyDisguised(_)
                | tdf_disguise::Error::NotDisguised(_)
                | tdf_disguise::Error::NoRows(_)),
            ) => Response::Refused {
                reason: RefusalReason::Policy,
                message: e.to_string(),
            },
            Err(e) => return Err(io::Error::other(e)),
        };
        if let (Some(span), Some(shadow)) = (span, self.shadow.as_mut()) {
            let wal_after = std::fs::metadata(&wal)?.len();
            self.counts.txns += 1;
            self.counts.wal_bytes += wal_after - wal_before;
            // Shadow child: the same committed record appended (and
            // fsynced) to a second journal.
            let last = tdf_disguise::wal::read_all(&wal)
                .map_err(io::Error::other)?
                .pop()
                .expect("a committed transaction");
            let tracer = self.tracer.as_mut().expect("traced");
            let (appended, _) = tracer.time("disguise.wal_append", req, Some(span), || {
                shadow.append(&last)
            });
            appended.map_err(io::Error::other)?;
        }
        Ok(response)
    }
}

/// What a replay is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Expected answers only.
    Check,
    /// Expected answers, spans and counts. PIR sweeps are timed on index
    /// sets of `pir_lanes` consecutive fetches, the lane count the served
    /// run's batcher formed.
    Trace {
        /// Fetches per sweep.
        pir_lanes: usize,
    },
}

/// Replays `seq` (set-up ops, warm-up prefix, timed ops) in process.
/// Ops from index `timed_from` on are traced in [`Mode::Trace`]. `dir`
/// holds the replay's journals.
pub fn replay(
    p: &Params,
    seq: &[Op],
    timed_from: usize,
    mode: Mode,
    dir: &Path,
) -> io::Result<Replay> {
    let traced = matches!(mode, Mode::Trace { .. });
    let mut r = Replayer::new(p, dir, traced)?;
    // Spilling never changes an answer, so only a traced replay, which
    // times the segment layer, runs under the workload's cache budget.
    let budget = if traced { cache_budget(p)? } else { None };
    r.data.set_cache_budget(budget.unwrap_or(usize::MAX));
    let mut expected: Vec<Vec<Response>> = vec![Vec::new(); seq.len()];
    let setup_len = crate::ops::setup_ops(p).len();
    for (i, op) in seq.iter().enumerate().take(setup_len) {
        expected[i] = r.step(i, op, false)?;
    }
    match p.workload {
        Workload::PirFetch => {
            for (i, op) in seq.iter().enumerate().skip(setup_len) {
                expected[i] = r.step(i, op, false)?;
            }
            if let (Mode::Trace { pir_lanes }, Some(tracer)) = (mode, r.tracer.as_mut()) {
                trace_pir(p, &seq[timed_from..], timed_from, pir_lanes, tracer)?;
            }
        }
        Workload::QueryResident | Workload::QuerySpill | Workload::IngestMixed => {
            for (i, op) in seq.iter().enumerate().skip(setup_len) {
                expected[i] = r.step(i, op, i >= timed_from)?;
            }
        }
    }
    Ok(Replay {
        expected,
        counts: r.counts,
        tracer: r.tracer,
    })
}

/// The PIR layers in process. The timed fetches go through a
/// `PirBatcher` from one thread per served connection, in rounds of
/// `lanes` consecutive fetches (the lane count the served run's batcher
/// formed). After each round, while the other threads wait, the round's
/// indices are swept alone through `retrieve_batch`; that sweep is
/// recorded as a shadow child of every fetch it answers, so a fetch's
/// self time is its wait for the admission window. Pairing each round
/// with its sweep keeps the two under the same host load.
fn trace_pir(
    p: &Params,
    timed: &[Op],
    first: usize,
    lanes: usize,
    tracer: &mut Tracer,
) -> io::Result<()> {
    let size = p.pir_record_size;
    let db = Database::from_fn(p.pir_records, size, |i, rec| {
        rec.copy_from_slice(&pir_record(p.seed, size, i));
    });
    let batcher = PirBatcher::new(p.seed, 1, 64);
    let lanes = lanes.max(1);
    let conns = p.connections.max(1);
    let barrier = std::sync::Barrier::new(conns);
    let index_of = |op: &Op| match *op {
        Op::Pir { index } => index as usize,
        _ => unreachable!("pir_fetch sequences hold PIR fetches only"),
    };
    // Per op: decode, fetch and encode intervals; per round: the sweep.
    type Interval = (Instant, Instant);
    let mut steps: Vec<Option<[Interval; 3]>> = vec![None; timed.len()];
    let mut sweeps: Vec<Interval> = Vec::new();
    let mut wrong = 0usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (db, batcher, barrier) = (&db, &batcher, &barrier);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(p.seed);
                    let (mut mine, mut sweeps, mut wrong) = (Vec::new(), Vec::new(), 0usize);
                    let timed_call = |f: &mut dyn FnMut()| {
                        let start = Instant::now();
                        f();
                        (start, Instant::now())
                    };
                    for (k, round) in timed.chunks(lanes).enumerate() {
                        barrier.wait();
                        for (l, op) in round.iter().enumerate().filter(|(l, _)| l % conns == c) {
                            let index = index_of(op);
                            let frame = encode_request(&request_of(op));
                            let decode = timed_call(&mut || {
                                wrong += usize::from(read_request(&mut frame.as_slice()).is_err());
                            });
                            let mut record = Vec::new();
                            let fetch = timed_call(&mut || record = batcher.fetch(db, index));
                            wrong += usize::from(record != pir_record(p.seed, size, index));
                            let response = Response::Record(record);
                            let encode = timed_call(&mut || {
                                std::hint::black_box(encode_response(&response));
                            });
                            mine.push((k * lanes + l, [decode, fetch, encode]));
                        }
                        barrier.wait();
                        if c == 0 {
                            let indices: Vec<usize> = round.iter().map(index_of).collect();
                            let mut out = Vec::new();
                            sweeps.push(timed_call(&mut || {
                                out = retrieve_batch(&mut rng, db, &indices).records;
                            }));
                            for (record, &index) in out.iter().zip(&indices) {
                                wrong += usize::from(*record != pir_record(p.seed, size, index));
                            }
                        }
                    }
                    (mine, sweeps, wrong)
                })
            })
            .collect();
        for h in handles {
            let (mine, s, w) = h.join().expect("fetch thread panicked");
            for (j, intervals) in mine {
                steps[j] = Some(intervals);
            }
            if !s.is_empty() {
                sweeps = s;
            }
            wrong += w;
        }
    });
    if wrong > 0 {
        return Err(io::Error::other(format!(
            "{wrong} in-process PIR answers were wrong"
        )));
    }
    for (j, intervals) in steps.into_iter().enumerate() {
        let [decode, fetch, encode] = intervals.expect("every fetch ran");
        let req = (first + j) as u64;
        tracer.record("protocol.decode", req, None, decode.0, decode.1);
        let span = tracer.record("batch.fetch", req, None, fetch.0, fetch.1);
        let sweep = sweeps[j / lanes];
        tracer.record("pir.sweep", req, Some(span), sweep.0, sweep.1);
        tracer.record("protocol.encode", req, None, encode.0, encode.1);
    }
    Ok(())
}
