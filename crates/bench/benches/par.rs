//! Thread-scaling and mask-packing benches for the `tdf-par` substrate.
//!
//! Two families:
//!
//! * `scaling/*` — the parallelized kernels (MDAV, Mondrian, record
//!   linkage, multi-server PIR) at 1/2/4 `tdf-par` threads. Each summary
//!   records the pinned thread count; on a single-core host the three
//!   rows coincide, which is itself the determinism story — the *results*
//!   are bit-identical at every point of the series.
//! * `packing/*` — the word-packed PIR scan against the pre-PR reference
//!   (one heap allocation per record, `Vec<bool>` masks, one RNG draw per
//!   mask bit), single-threaded, so the packing win is isolated from
//!   thread scaling.
//!
//! Emits `BENCH_par.json`.

use rngkit::{Rng, SeedableRng};
use tdf_anonymity::mondrian_anonymize;
use tdf_bench::harness::Harness;
use tdf_microdata::synth::{patients, PatientConfig};
use tdf_pir::bits::BitVec;
use tdf_pir::linear;
use tdf_pir::store::Database;
use tdf_sdc::microaggregation::mdav_microaggregate;
use tdf_sdc::risk::record_linkage_rate;

fn rng() -> rngkit::rngs::StdRng {
    rngkit::rngs::StdRng::seed_from_u64(tdf_bench::seed_from_env(0x9A17))
}

/// The pre-PR database layout: one heap allocation per record.
struct LegacyDb {
    records: Vec<Vec<u8>>,
}

impl LegacyDb {
    fn xor_selected(&self, mask: &[bool]) -> Vec<u8> {
        let mut acc = vec![0u8; self.records.first().map_or(0, Vec::len)];
        for (i, &selected) in mask.iter().enumerate() {
            if selected {
                for (a, b) in acc.iter_mut().zip(&self.records[i]) {
                    *a ^= b;
                }
            }
        }
        acc
    }
}

/// The `Vec<bool>` scan over the flat store: the packed scan's reference,
/// without the per-record allocations of [`LegacyDb`].
fn xor_selected_bools(db: &Database, mask: &[bool]) -> Vec<u8> {
    let mut acc = vec![0u8; db.record_size()];
    for (i, _) in mask.iter().enumerate().filter(|(_, &selected)| selected) {
        for (a, b) in acc.iter_mut().zip(db.record(i)) {
            *a ^= b;
        }
    }
    acc
}

/// The pre-PR linear retrieval: per-bit RNG draws for the shares and the
/// branchy bool-mask scan per server.
fn legacy_retrieve<R: Rng + ?Sized>(rng: &mut R, db: &LegacyDb, k: usize, index: usize) -> Vec<u8> {
    let n = db.records.len();
    let mut shares: Vec<Vec<bool>> = (0..k - 1)
        .map(|_| (0..n).map(|_| rng.gen::<bool>()).collect())
        .collect();
    let last: Vec<bool> = (0..n)
        .map(|i| shares.iter().fold(i == index, |acc, s| acc ^ s[i]))
        .collect();
    shares.push(last);
    let mut acc = vec![0u8; db.records.first().map_or(0, Vec::len)];
    for share in &shares {
        for (a, b) in acc.iter_mut().zip(db.xor_selected(share)) {
            *a ^= b;
        }
    }
    acc
}

fn bench_scaling(h: &mut Harness) {
    let d = patients(&PatientConfig {
        n: 5000,
        ..Default::default()
    });
    let qi = d.schema().quasi_identifier_indices();
    for t in [1usize, 2, 4] {
        h.bench_at_threads(&format!("scaling/mdav_n5000_k5_t{t}"), t, || {
            mdav_microaggregate(&d, &qi, 5).expect("mdav")
        });
    }

    let dm = patients(&PatientConfig {
        n: 4000,
        ..Default::default()
    });
    for t in [1usize, 2, 4] {
        h.bench_at_threads(&format!("scaling/mondrian_n4000_k5_t{t}"), t, || {
            mondrian_anonymize(&dm, 5)
        });
    }

    let dl = patients(&PatientConfig {
        n: 1500,
        ..Default::default()
    });
    let masked = mdav_microaggregate(&dl, &dl.schema().quasi_identifier_indices(), 5)
        .expect("mdav")
        .data;
    let qi_l = dl.schema().quasi_identifier_indices();
    for t in [1usize, 2, 4] {
        h.bench_at_threads(&format!("scaling/linkage_n1500_t{t}"), t, || {
            record_linkage_rate(&dl, &masked, &qi_l).expect("linkage")
        });
    }

    let n = 65_536;
    let db = Database::new((0..n).map(|i| vec![(i % 251) as u8; 32]).collect());
    for t in [1usize, 2, 4] {
        let mut r = rng();
        h.bench_at_threads(
            &format!("scaling/pir_linear_4server_n65536_t{t}"),
            t,
            || linear::retrieve(&mut r, &db, 4, 12_345),
        );
    }
}

/// One packing comparison at `n` records of 32 bytes. `n = 16384` keeps
/// the database L2-resident so the scans themselves are compared;
/// `n = 65536` (2 MiB) is DRAM-bound, where the packed path saturates
/// memory bandwidth and the ratio narrows to the bandwidth gap.
fn bench_packing_at(h: &mut Harness, n: usize) {
    let raw: Vec<Vec<u8>> = (0..n).map(|i| vec![(i % 251) as u8; 32]).collect();
    let db = Database::new(raw.clone());
    let legacy = LegacyDb { records: raw };

    let mut r = rng();
    let mask = BitVec::random(&mut r, n);
    let bools = mask.to_bools();

    par::with_threads(1, || {
        h.bench(&format!("packing/scan_packed_n{n}"), || {
            db.xor_selected_batch(&[&mask])
        });
        h.bench(&format!("packing/scan_bools_flat_n{n}"), || {
            xor_selected_bools(&db, &bools)
        });
        h.bench(&format!("packing/scan_bools_legacy_n{n}"), || {
            legacy.xor_selected(&bools)
        });

        let mut r1 = rng();
        h.bench(&format!("packing/retrieve_packed_2server_n{n}"), || {
            linear::retrieve(&mut r1, &db, 2, n / 8)
        });
        let mut r2 = rng();
        h.bench(&format!("packing/retrieve_legacy_2server_n{n}"), || {
            legacy_retrieve(&mut r2, &legacy, 2, n / 8)
        });
    });
}

fn bench_packing(h: &mut Harness) {
    bench_packing_at(h, 16_384);
    bench_packing_at(h, 65_536);
}

fn main() {
    let mut h = Harness::new("par");
    bench_scaling(&mut h);
    bench_packing(&mut h);
    h.finish().expect("write BENCH_par.json");
}
