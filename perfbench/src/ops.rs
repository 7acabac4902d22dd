//! Workloads, their parameters and their op sequences.
//!
//! An op sequence is a pure function of the parameters, which are a pure
//! function of `(workload, seed, seconds)`. It is generated before any
//! timing starts, so every run of one configuration does the same work
//! and ends in the same per-user histories, budgets and refusal counts.

use rngkit::rngs::StdRng;
use rngkit::seq::SliceRandom;
use rngkit::{Rng, SeedableRng};

/// Query templates. The first [`ANALYST_TEMPLATES`] are the analyst mix,
/// from broad to narrow. Shares of the synthetic patient population
/// (height ~ N(170, 10), weight ~ N(78, 14)) are approximate. Every
/// template admits while the user's budget remains.
pub const QUERY_TEMPLATES: [&str; 5] = [
    // ~98 % of the rows
    "SELECT COUNT(*) FROM t WHERE height >= 150",
    // ~50 %
    "SELECT AVG(weight) FROM t WHERE height >= 170",
    // ~20 %
    "SELECT AVG(blood_pressure) FROM t WHERE weight >= 90",
    // ~2 %
    "SELECT COUNT(*) FROM t WHERE height >= 190",
    // ~1 %
    "SELECT AVG(blood_pressure) FROM t WHERE weight >= 110",
];

/// Templates of the analyst mix the query workloads draw from.
pub const ANALYST_TEMPLATES: usize = 4;

/// The narrow templates `ingest_mixed` reads with: its users are nearly
/// all new, so query cost is mostly the scan, and their one-set
/// histories stay small.
pub const NARROW_TEMPLATES: [usize; 2] = [3, 4];

/// Repetitions of a timed run: `--seconds` is split evenly across them.
pub const REPEATS: usize = 8;

/// Owners in the server's disguise ledger (`ServerConfig::disguise_users`).
pub const OWNERS: u64 = 16;

/// DISGUISE/RESTORE passes over the owners in the set-up: 128
/// transactions, whose median is `disguise_p50_ms` on workloads whose
/// timed sequence sends none.
pub const OWNER_PASSES: usize = 4;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Analysts only, whole population resident in the segment cache.
    QueryResident,
    /// The `query_resident` sequence with the segment cache at a quarter
    /// of the sealed bytes, so most segments reload on every query.
    QuerySpill,
    /// PIR fetches only, from two connections.
    PirFetch,
    /// APPEND/SEAL, DISGUISE/RESTORE and narrow queries on one connection.
    IngestMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::QueryResident,
        Workload::QuerySpill,
        Workload::PirFetch,
        Workload::IngestMixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::QueryResident => "query_resident",
            Workload::QuerySpill => "query_spill",
            Workload::PirFetch => "pir_fetch",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests per second of `--seconds` the timed sequences hold: about
    /// the rate the reference host (2 cores) sustains, so a run measures
    /// for roughly `--seconds`. The count, not the clock, ends a run.
    /// `query_spill` replays the `query_resident` sequence, so it shares
    /// that rate and runs longer.
    fn requests_per_second(self) -> f64 {
        match self {
            Workload::QueryResident | Workload::QuerySpill => 400.0,
            Workload::PirFetch => 420.0,
            Workload::IngestMixed => 1600.0,
        }
    }

    /// Seed-stream tag: the two query workloads share one, so they replay
    /// the same sequence.
    fn stream(self) -> u64 {
        match self {
            Workload::QueryResident | Workload::QuerySpill => 0x51,
            Workload::PirFetch => 0x91,
            Workload::IngestMixed => 0x1A,
        }
    }
}

/// Everything a run's inputs derive from.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// The workload.
    pub workload: Workload,
    /// Seeds the op sequence and the server (population, PIR store,
    /// noise streams).
    pub seed: u64,
    /// Rows of the server's initial segment; each ingest round appends as
    /// many again and seals them.
    pub initial_rows: usize,
    /// APPEND + SEAL rounds of the set-up ingest.
    pub ingest_rounds: usize,
    /// Analyst ids drawn Zipf (query workloads).
    pub users: u64,
    /// Zipf exponent of the analyst draw.
    pub zipf_s: f64,
    /// Untimed warm-up prefix of the op sequence, run inside set-up.
    pub warmup: usize,
    /// Timed requests.
    pub requests: usize,
    /// Closed-loop connections; op `i` goes to connection `i % connections`.
    pub connections: usize,
    /// Records in the server's PIR store.
    pub pir_records: usize,
    /// Bytes per PIR record.
    pub pir_record_size: usize,
    /// `ServerConfig::compact_min` (0 = no background compaction).
    pub compact_min: usize,
    /// Rows per APPEND in the `ingest_mixed` sequence (0 elsewhere).
    pub append_rows: u32,
    /// APPENDs between two SEALs in the `ingest_mixed` sequence.
    pub appends_per_seal: usize,
    /// `ingest_mixed` disguises one owner every this many requests.
    pub disguise_every: usize,
    /// Segment-cache budget as a share of the sealed bytes (`query_spill`).
    pub cache_share: Option<f64>,
    /// Repetitions of set-up + timed sequence in a timed run, each on a
    /// fresh server.
    pub repeats: usize,
}

impl Params {
    /// The benchmark's configuration of `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: u64) -> Params {
        let per_repeat = seconds as f64 / REPEATS as f64;
        let requests = (per_repeat * workload.requests_per_second()).round() as usize;
        let mut p = Params {
            workload,
            seed,
            initial_rows: 2048,
            ingest_rounds: 15,
            users: 1000,
            zipf_s: 1.1,
            warmup: 100,
            requests: requests.max(1),
            connections: 1,
            pir_records: 4096,
            pir_record_size: 32,
            compact_min: 0,
            append_rows: 0,
            appends_per_seal: 32,
            disguise_every: 100,
            cache_share: None,
            repeats: REPEATS,
        };
        match workload {
            Workload::QueryResident => {}
            Workload::QuerySpill => p.cache_share = Some(0.25),
            Workload::PirFetch => {
                p.connections = 2;
                p.pir_records = 1 << 20;
            }
            Workload::IngestMixed => {
                p.warmup = 400;
                p.compact_min = 8192;
                // The largest APPEND that lets the table at most triple
                // over the sequence: the more rows an APPEND carries, the
                // less of its round trip is the host's wake-up latency.
                let appends =
                    (((p.warmup + p.requests) as f64 * APPEND_SHARE).ceil() as usize).max(1);
                p.append_rows = (2 * p.population() / appends).max(1) as u32;
            }
        }
        p
    }

    /// A small configuration of `workload` for the benchmark's own tests.
    pub fn tiny(workload: Workload, seed: u64) -> Params {
        let mut p = Params::new(workload, seed, 1);
        p.initial_rows = 64;
        p.ingest_rounds = 3;
        p.users = 20;
        p.warmup = 10;
        p.requests = 120;
        p.repeats = 2;
        if workload == Workload::PirFetch {
            p.pir_records = 1000;
        }
        if workload == Workload::IngestMixed {
            p.append_rows = 4;
            p.compact_min = 128;
            p.appends_per_seal = 4;
            p.disguise_every = 25;
        }
        p
    }

    /// Rows after the set-up ingest.
    pub fn population(&self) -> usize {
        self.initial_rows * (1 + self.ingest_rounds)
    }

    /// The parameters as one JSON object (provenance).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"workload\":\"{}\",\"seed\":{},\"initial_rows\":{},\"ingest_rounds\":{},",
                "\"population\":{},\"users\":{},\"zipf_s\":{},\"warmup\":{},\"requests\":{},",
                "\"connections\":{},\"pir_records\":{},\"pir_record_size\":{},\"compact_min\":{},",
                "\"append_rows\":{},\"appends_per_seal\":{},\"disguise_every\":{},",
                "\"cache_share\":{},\"repeats\":{}}}"
            ),
            self.workload.name(),
            self.seed,
            self.initial_rows,
            self.ingest_rounds,
            self.population(),
            self.users,
            self.zipf_s,
            self.warmup,
            self.requests,
            self.connections,
            self.pir_records,
            self.pir_record_size,
            self.compact_min,
            self.append_rows,
            self.appends_per_seal,
            self.disguise_every,
            self.cache_share
                .map_or("null".to_owned(), |s| s.to_string()),
            self.repeats,
        )
    }
}

/// One request of a sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// QUERY with template `template` of [`QUERY_TEMPLATES`] for `user`.
    Query {
        /// The analyst id.
        user: u64,
        /// Index into [`QUERY_TEMPLATES`].
        template: usize,
    },
    /// PIR_FETCH of record `index`.
    Pir {
        /// Record index.
        index: u64,
    },
    /// APPEND of `count` synthetic rows.
    Append {
        /// Rows to append.
        count: u32,
    },
    /// SEAL of the mutable tail.
    Seal,
    /// DISGUISE of a ledger owner.
    Disguise {
        /// Owner id in `1..=OWNERS`.
        owner: u64,
    },
    /// RESTORE of a ledger owner.
    Restore {
        /// Owner id in `1..=OWNERS`.
        owner: u64,
    },
}

/// The fixed set-up requests every workload sends on its first
/// connection: the population ingest (rounds of one APPEND of
/// `initial_rows` rows and a SEAL), then [`OWNER_PASSES`] DISGUISE/RESTORE
/// passes over the ledger owners.
///
/// The set-up ingest sets both `setup_s` and, on workloads whose timed
/// sequence sends no APPEND, `append_p50_ms`. A whole round in one APPEND
/// makes row synthesis, not the loopback round trip, nearly all of it,
/// and the round trip of a tiny request is what a busy shared host slows
/// most.
pub fn setup_ops(p: &Params) -> Vec<Op> {
    let mut out = Vec::new();
    for _ in 0..p.ingest_rounds {
        out.push(Op::Append {
            count: p.initial_rows as u32,
        });
        out.push(Op::Seal);
    }
    for _ in 0..OWNER_PASSES {
        for owner in 1..=OWNERS {
            out.push(Op::Disguise { owner });
            out.push(Op::Restore { owner });
        }
    }
    out
}

/// The seeded sequence: `p.warmup` untimed requests, then `p.requests`
/// timed ones.
pub fn ops(p: &Params) -> Vec<Op> {
    let total = p.warmup + p.requests;
    let mut state = p.seed ^ p.workload.stream().wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rng = StdRng::seed_from_u64(rngkit::splitmix64(&mut state));
    match p.workload {
        Workload::QueryResident | Workload::QuerySpill => query_ops(p, &mut rng, total),
        Workload::PirFetch => (0..total)
            .map(|_| Op::Pir {
                index: rng.gen_range(0..p.pir_records as u64),
            })
            .collect(),
        Workload::IngestMixed => ingest_ops(p, &mut rng, total),
    }
}

/// Queries per Zipf rank: each rank's expected share of `total`, rounded
/// by largest remainder so that the counts sum to `total`.
pub fn zipf_quota(users: u64, s: f64, total: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=users).map(|rank| (rank as f64).powf(-s)).collect();
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..counts.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = total - counts.iter().sum::<usize>();
    for &rank in &by_remainder[..short] {
        counts[rank] += 1;
    }
    counts
}

/// The analyst sequence, drawn Zipf by quota: every rank sends exactly
/// its expected share of the queries, in a seeded order, and each user
/// walks the template mix round-robin. How many
/// queries each user sends, and so how long its history grows and how
/// often the budget refuses it, is then the same for every seed; a free
/// Zipf draw moved the head user's count, and with it p90 and peak RSS,
/// by several per cent from seed to seed.
fn query_ops(p: &Params, rng: &mut StdRng, total: usize) -> Vec<Op> {
    let mut ranks: Vec<u64> = zipf_quota(p.users, p.zipf_s, total)
        .into_iter()
        .zip(1..)
        .flat_map(|(n, rank)| std::iter::repeat_n(rank, n))
        .collect();
    ranks.shuffle(rng);
    // Users start in order of first appearance, so the many users who ask
    // once also spread evenly over the templates.
    let mut next: Vec<Option<usize>> = vec![None; p.users as usize];
    let mut starts = 0;
    ranks
        .into_iter()
        .map(|rank| {
            let template = next[rank as usize - 1].get_or_insert_with(|| {
                starts += 1;
                (starts - 1) % ANALYST_TEMPLATES
            });
            let op = Op::Query {
                user: user_id(p.seed, rank),
                template: *template,
            };
            *template = (*template + 1) % ANALYST_TEMPLATES;
            op
        })
        .collect()
}

/// Zipf rank → analyst id. A bijection for a fixed seed, so distinct
/// ranks stay distinct users while the ids themselves move with the seed.
fn user_id(seed: u64, rank: u64) -> u64 {
    let mut state = seed ^ rank;
    rngkit::splitmix64(&mut state)
}

/// `ingest_mixed` deals its APPENDs and QUERYs from shuffled decks of
/// [`DECK`] requests, [`DECK_APPENDS`] of them APPENDs, so the mix is
/// exact in every run. Not half: APPEND and QUERY latencies form two
/// separate modes, and a median sitting on the boundary between them
/// would jump from run to run.
const DECK: usize = 5;
const DECK_APPENDS: usize = 2;
const APPEND_SHARE: f64 = DECK_APPENDS as f64 / DECK as f64;

fn ingest_ops(p: &Params, rng: &mut StdRng, total: usize) -> Vec<Op> {
    let mut out = Vec::with_capacity(total + 1);
    let (mut appends, mut queries) = (0usize, 0usize);
    let mut deck: Vec<bool> = Vec::new();
    let mut restore: Option<(usize, u64)> = None;
    while out.len() < total {
        let i = out.len();
        if i % p.disguise_every == p.disguise_every / 2 {
            let owner = rng.gen_range(1..=OWNERS);
            out.push(Op::Disguise { owner });
            restore = Some((i + 10, owner));
            continue;
        }
        if let Some((at, owner)) = restore {
            if i >= at {
                out.push(Op::Restore { owner });
                restore = None;
                continue;
            }
        }
        if deck.is_empty() {
            deck = (0..DECK).map(|k| k < DECK_APPENDS).collect();
            deck.shuffle(rng);
        }
        if deck.pop() == Some(true) {
            out.push(Op::Append {
                count: p.append_rows,
            });
            appends += 1;
            if appends % p.appends_per_seal == 0 {
                out.push(Op::Seal);
            }
        } else {
            out.push(Op::Query {
                user: 1 + rng.gen_range(0..1u64 << 40),
                template: NARROW_TEMPLATES[queries % NARROW_TEMPLATES.len()],
            });
            queries += 1;
        }
    }
    out.truncate(total);
    out
}
