//! Mondrian multidimensional partitioning for numeric quasi-identifiers.
//!
//! Recursively splits the record set along the quasi-identifier dimension
//! with the widest (normalized) range, at the median, as long as both sides
//! keep at least `k` records; each final partition is then made uniform by
//! replacing members' quasi-identifier values with the partition centroid.
//! The result is k-anonymous by construction and numerically analysable
//! (unlike interval recoding, the output stays numeric).

use tdf_microdata::column::F64Cells;
use tdf_microdata::Dataset;

/// Result of a Mondrian run.
#[derive(Debug, Clone)]
pub struct MondrianResult {
    /// The anonymized dataset (same schema as the input).
    pub data: Dataset,
    /// Partition id per record (for inspection and tests).
    pub partition_of: Vec<usize>,
    /// Number of final partitions.
    pub num_partitions: usize,
}

/// Runs strict Mondrian with parameter `k` on the numeric quasi-identifiers
/// of `data`. Panics when `k` is zero; returns the dataset unchanged (one
/// partition) when it has fewer than `2k` records.
pub fn mondrian_anonymize(data: &Dataset, k: usize) -> MondrianResult {
    assert!(k >= 1, "k must be at least 1");
    let qi: Vec<usize> = data
        .schema()
        .quasi_identifier_indices()
        .into_iter()
        .filter(|&c| data.schema().attribute(c).kind.is_numeric())
        .collect();

    // One contiguous numeric reader per QI column, hoisted for the whole
    // recursion: the range/median scans below never materialize a `Value`.
    let cells: Vec<F64Cells> = qi
        .iter()
        .map(|&c| data.f64_cells(c).expect("numeric column"))
        .collect();

    let _span = obs::span("anonymity.mondrian");
    let mut partitions: Vec<Vec<usize>> = Vec::new();
    let all: Vec<usize> = (0..data.num_rows()).collect();
    let mut stats = SplitStats::default();
    split(&cells, k, all, 0, &mut partitions, &mut stats);
    obs::count("anonymity.mondrian.partitions", partitions.len() as u64);
    obs::count("anonymity.mondrian.splits", stats.splits);
    obs::gauge_max("anonymity.mondrian.max_depth", stats.max_depth);

    let mut out = data.clone();
    let mut partition_of = vec![0usize; data.num_rows()];
    for (pid, members) in partitions.iter().enumerate() {
        for (&col, col_cells) in qi.iter().zip(&cells) {
            let mean = members
                .iter()
                .filter_map(|&i| col_cells.get(i))
                .sum::<f64>()
                / members.len() as f64;
            let dst = out.float_col_mut(col).expect("numeric column");
            for &i in members {
                dst.set(i, Some(mean));
            }
        }
        for &i in members {
            partition_of[i] = pid;
        }
    }
    let num_partitions = partitions.len();
    MondrianResult {
        data: out,
        partition_of,
        num_partitions,
    }
}

/// Split/depth tallies accumulated locally during the recursion and
/// flushed to the observability registry once per Mondrian run — the
/// partitioning loop is too hot for a per-node registry write.
#[derive(Default)]
struct SplitStats {
    splits: u64,
    max_depth: u64,
}

impl SplitStats {
    fn leaf_at(&mut self, depth: usize) {
        self.max_depth = self.max_depth.max(depth as u64);
    }
}

/// `depth` is the recursion depth of this call (0 at the root); the max
/// over leaves is the tree depth (every maximal path ends in a leaf).
fn split(
    cells: &[F64Cells],
    k: usize,
    members: Vec<usize>,
    depth: usize,
    out: &mut Vec<Vec<usize>>,
    stats: &mut SplitStats,
) {
    if members.len() < 2 * k || cells.is_empty() {
        stats.leaf_at(depth);
        out.push(members);
        return;
    }
    // Pick the dimension with the widest normalized range. The per-column
    // (min, max) scan over members runs in parallel; `f64::min`/`f64::max`
    // merges are exact, so the extrema — and therefore the chosen split —
    // do not depend on chunking or thread count.
    let mut best: Option<(usize, f64)> = None;
    for (j, col_cells) in cells.iter().enumerate() {
        let (lo, hi) = par::par_chunks_reduce(
            &members,
            |chunk| {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for &i in chunk {
                    if let Some(v) = col_cells.get(i) {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                }
                (lo, hi)
            },
            |a, b| (a.0.min(b.0), a.1.max(b.1)),
        )
        .expect("members is non-empty");
        if hi < lo {
            // No numeric values in this column.
            continue;
        }
        let range = hi - lo;
        if best.is_none_or(|(_, r)| range > r) {
            best = Some((j, range));
        }
    }
    let (j, range) = match best {
        Some(b) => b,
        None => {
            stats.leaf_at(depth);
            out.push(members);
            return;
        }
    };
    if range <= 0.0 {
        // All quasi-identifier values equal: nothing to split on.
        stats.leaf_at(depth);
        out.push(members);
        return;
    }

    // Median split on the chosen dimension.
    let split_cells = &cells[j];
    let mut sorted = members.clone();
    sorted.sort_by(|&a, &b| {
        split_cells
            .get(a)
            .unwrap_or(f64::NAN)
            .total_cmp(&split_cells.get(b).unwrap_or(f64::NAN))
    });
    let mid = sorted.len() / 2;
    let (left, right) = sorted.split_at(mid);
    if left.len() < k || right.len() < k {
        stats.leaf_at(depth);
        out.push(members);
        return;
    }
    stats.splits += 1;
    split(cells, k, left.to_vec(), depth + 1, out, stats);
    split(cells, k, right.to_vec(), depth + 1, out, stats);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{is_k_anonymous, k_anonymity_level};
    use tdf_microdata::patients as table1;
    use tdf_microdata::synth::{patients, PatientConfig};

    #[test]
    fn output_is_k_anonymous() {
        let d = patients(&PatientConfig {
            n: 500,
            ..Default::default()
        });
        for k in [2usize, 3, 5, 10] {
            let r = mondrian_anonymize(&d, k);
            assert!(
                is_k_anonymous(&r.data, k),
                "k = {k}, level = {:?}",
                k_anonymity_level(&r.data)
            );
        }
    }

    #[test]
    fn partitions_have_at_least_k_members() {
        let d = patients(&PatientConfig {
            n: 333,
            ..Default::default()
        });
        let k = 7;
        let r = mondrian_anonymize(&d, k);
        let mut counts = vec![0usize; r.num_partitions];
        for &p in &r.partition_of {
            counts[p] += 1;
        }
        assert!(counts.iter().all(|&c| c >= k), "{counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 333);
    }

    #[test]
    fn confidential_attributes_survive_unchanged() {
        let d = table1::dataset2();
        let r = mondrian_anonymize(&d, 3);
        for i in 0..d.num_rows() {
            assert_eq!(r.data.value(i, 2), d.value(i, 2));
            assert_eq!(r.data.value(i, 3), d.value(i, 3));
        }
        assert!(is_k_anonymous(&r.data, 3));
    }

    #[test]
    fn small_dataset_collapses_to_one_partition() {
        let d = table1::dataset2();
        let r = mondrian_anonymize(&d, 6); // 10 < 2·6
        assert_eq!(r.num_partitions, 1);
        assert!(is_k_anonymous(&r.data, 10));
    }

    #[test]
    fn more_partitions_with_smaller_k() {
        let d = patients(&PatientConfig {
            n: 400,
            ..Default::default()
        });
        let r2 = mondrian_anonymize(&d, 2);
        let r20 = mondrian_anonymize(&d, 20);
        assert!(r2.num_partitions > r20.num_partitions);
    }

    #[test]
    fn centroids_preserve_column_means() {
        let d = patients(&PatientConfig {
            n: 256,
            ..Default::default()
        });
        let r = mondrian_anonymize(&d, 4);
        for col in [0usize, 1] {
            let orig = tdf_microdata::stats::mean(&d.numeric_column(col)).unwrap();
            let masked = tdf_microdata::stats::mean(&r.data.numeric_column(col)).unwrap();
            assert!(
                (orig - masked).abs() < 1e-6,
                "col {col}: {orig} vs {masked}"
            );
        }
    }

    #[test]
    fn partitioning_is_identical_across_thread_counts() {
        let d = patients(&PatientConfig {
            n: 300,
            ..Default::default()
        });
        let run = |t: usize| par::with_threads(t, || mondrian_anonymize(&d, 5));
        let (a, b) = (run(1), run(4));
        assert_eq!(a.partition_of, b.partition_of);
        assert_eq!(a.num_partitions, b.num_partitions);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_panics() {
        let _ = mondrian_anonymize(&table1::dataset1(), 0);
    }
}
