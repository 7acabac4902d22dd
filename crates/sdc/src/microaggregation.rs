//! Microaggregation: MDAV and fixed-size heuristics.
//!
//! Microaggregation partitions records into groups of at least `k` similar
//! records and replaces each group's values by the group centroid. Applied
//! to the quasi-identifiers it yields k-anonymity (\[12\]); applied to all
//! attributes it is the *condensation* PPDM method of Aggarwal–Yu \[1\],
//! because the released centroids preserve means exactly and covariances
//! approximately.

use tdf_microdata::distance::{sq_euclidean, Points, Standardizer};
use tdf_microdata::{Dataset, Error, Result};

/// Output of a microaggregation run.
#[derive(Debug, Clone)]
pub struct MicroaggregationResult {
    /// Masked dataset (same schema; aggregated columns hold centroids).
    pub data: Dataset,
    /// Group id assigned to every record.
    pub group_of: Vec<usize>,
    /// Number of groups formed.
    pub num_groups: usize,
    /// Within-group sum of squared (standardized) distances — the SSE the
    /// method minimizes; reported for information-loss accounting.
    pub sse: f64,
}

/// MDAV (Maximum Distance to Average Vector) microaggregation of the given
/// numeric `cols` with minimum group size `k` (Domingo-Ferrer &
/// Mateo-Sanz \[10\]).
/// ```
/// use tdf_microdata::patients;
/// use tdf_sdc::microaggregation::mdav_microaggregate;
/// use tdf_anonymity::is_k_anonymous;
///
/// let data = patients::dataset2(); // not 3-anonymous
/// let masked = mdav_microaggregate(&data, &[0, 1], 3).unwrap().data;
/// assert!(is_k_anonymous(&masked, 3));
/// ```
pub fn mdav_microaggregate(
    data: &Dataset,
    cols: &[usize],
    k: usize,
) -> Result<MicroaggregationResult> {
    validate(data, cols, k)?;
    let _span = obs::span("sdc.mdav");
    let std = Standardizer::fit(data, cols);
    let points = standardized_points(data, &std);

    let mut active = ActiveSet::all_of(&points);
    let mut groups: Vec<Vec<usize>> = Vec::new();
    // Scan tallies accumulated locally and flushed once per run — the
    // distance loop is too hot for a per-scan registry write. Each
    // distance scan fills one squared distance per live record.
    let mut fills = 0u64;
    let mut skips = 0u64;

    while active.len() >= 3 * k {
        let centroid = active.centroid();
        // r: farthest record from the centroid; s: farthest from r. The
        // anchor-r distances are computed once and reused to carve r's
        // group below.
        fills += 2 * active.len() as u64; // the farthest scan and d_r
        let r = active.ids[active.farthest(&centroid)];
        let d_r = active.distances_to(points.point(r));
        let s = active.ids[argmax(&d_r)];

        let group_r = k_nearest(&active.ids, &d_r, k, &mut skips);
        active.remove(&group_r);
        groups.push(group_r);

        fills += active.len() as u64;
        let d_s = active.distances_to(points.point(s));
        let group_s = k_nearest(&active.ids, &d_s, k, &mut skips);
        active.remove(&group_s);
        groups.push(group_s);
    }
    if active.len() >= 2 * k {
        let centroid = active.centroid();
        fills += 2 * active.len() as u64;
        let r = active.ids[active.farthest(&centroid)];
        let d_r = active.distances_to(points.point(r));
        let group = k_nearest(&active.ids, &d_r, k, &mut skips);
        active.remove(&group);
        groups.push(group);
    }
    if !active.is_empty() {
        groups.push(active.ids);
    }
    obs::count("sdc.mdav.groups", groups.len() as u64);
    obs::count("sdc.mdav.distance_fills", fills);
    obs::count("sdc.mdav.block_skips", skips);

    Ok(finish(data, cols, points, groups))
}

/// The records MDAV has not yet grouped, kept as a *structure of
/// arrays*: `ids[p]` is the record id and `cols[t][p]` its standardized
/// coordinate in dimension `t`. Removal compacts ids and every column in
/// place (order-preserving), so each distance scan is a handful of
/// contiguous column sweeps over exactly the live records — branch-free
/// loops the compiler vectorizes, with no gather through a shrinking
/// index list. Per-element arithmetic, per-component summation order,
/// chunk boundaries, and fold order all match the row-major gather
/// formulation, so the groups formed are bit-identical to it.
struct ActiveSet {
    ids: Vec<usize>,
    cols: Vec<Vec<f64>>,
}

impl ActiveSet {
    fn all_of(points: &Points) -> Self {
        let dim = points.dim();
        let cols = (0..dim)
            .map(|t| points.flat().iter().skip(t).step_by(dim).copied().collect())
            .collect();
        Self {
            ids: (0..points.len()).collect(),
            cols,
        }
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    fn dim(&self) -> usize {
        self.cols.len()
    }

    /// Squared distances from each live record to `target`, in `ids`
    /// order. Serially this is one squaring sweep over the first column
    /// followed by an accumulate sweep per further column — the same
    /// left-to-right sum per element as `sq_euclidean` (squares are never
    /// `-0.0`, so eliding the leading `0.0 +` term preserves every bit).
    fn distances_to(&self, target: &[f64]) -> Vec<f64> {
        let n = self.len();
        if self.dim() == 0 {
            return vec![0.0; n];
        }
        if par::effective_threads() > 1 {
            return par::par_map_range(n, |p| {
                let mut acc = 0.0f64;
                for (col, &t) in self.cols.iter().zip(target) {
                    let d = col[p] - t;
                    acc += d * d;
                }
                acc
            });
        }
        let mut out = vec![0.0f64; n];
        fill_sq_dists(&self.cols, target, &mut out);
        out
    }

    /// Position of the live record farthest from `target` — exactly
    /// `argmax(&self.distances_to(target))`.
    fn farthest(&self, target: &[f64]) -> usize {
        argmax(&self.distances_to(target))
    }

    /// Centroid of the live records, summed in fixed chunk order (the
    /// same length-only chunk boundaries and per-component element order
    /// as the row-major reduce, so the mean is bit-identical at every
    /// thread count).
    fn centroid(&self) -> Vec<f64> {
        let d = self.dim();
        let n = self.len() as f64;
        if d <= 8 {
            // Stack accumulators — no per-chunk allocation.
            let sums = par::par_index_reduce(
                self.len(),
                |range| {
                    let mut acc = [0.0f64; 8];
                    for (t, col) in self.cols.iter().enumerate() {
                        let mut s = 0.0f64;
                        for &x in &col[range.clone()] {
                            s += x;
                        }
                        acc[t] = s;
                    }
                    acc
                },
                |mut a, b| {
                    for t in 0..d {
                        a[t] += b[t];
                    }
                    a
                },
            )
            .expect("non-empty active set");
            return sums[..d].iter().map(|s| s / n).collect();
        }
        let sums = par::par_index_reduce(
            self.len(),
            |range| {
                self.cols
                    .iter()
                    .map(|col| col[range.clone()].iter().sum::<f64>())
                    .collect::<Vec<f64>>()
            },
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(&b) {
                    *x += y;
                }
                a
            },
        )
        .expect("non-empty active set");
        sums.into_iter().map(|s| s / n).collect()
    }

    /// Drops `members` (by record id), compacting ids and every column in
    /// one order-preserving pass. Membership is a linear probe of the
    /// (tiny, size-`k`) group — or a sorted binary search for large `k` —
    /// rather than a hash set: the probe runs once per live record, and
    /// hashing dominated the whole MDAV loop at small `k`.
    fn remove(&mut self, members: &[usize]) {
        let mut sorted: Vec<usize>;
        let taken: &[usize] = if members.len() > 16 {
            sorted = members.to_vec();
            sorted.sort_unstable();
            &sorted
        } else {
            members
        };
        let gone = |id: usize| {
            if members.len() > 16 {
                taken.binary_search(&id).is_ok()
            } else {
                taken.contains(&id)
            }
        };
        let mut w = 0usize;
        for p in 0..self.ids.len() {
            if !gone(self.ids[p]) {
                self.ids[w] = self.ids[p];
                if w != p {
                    for col in &mut self.cols {
                        col[w] = col[p];
                    }
                }
                w += 1;
            }
        }
        self.ids.truncate(w);
        for col in &mut self.cols {
            col.truncate(w);
        }
    }
}

/// `out[p] = sq_euclidean(record p, target)` over structure-of-arrays
/// columns: a squaring sweep over the first column, then one accumulate
/// sweep per further column. Each sweep is a contiguous, branch-free loop;
/// the per-element summation order is exactly `sq_euclidean`\'s.
fn fill_sq_dists(cols: &[Vec<f64>], target: &[f64], out: &mut [f64]) {
    let t0 = target[0];
    for (o, &x) in out.iter_mut().zip(&cols[0]) {
        let d = x - t0;
        *o = d * d;
    }
    for (col, &tj) in cols[1..].iter().zip(&target[1..]) {
        for (o, &x) in out.iter_mut().zip(col) {
            let d = x - tj;
            *o += d * d;
        }
    }
}

/// Standardized coordinates for every record, as one flat row-major
/// buffer filled column-by-column from contiguous column storage (the
/// per-cell arithmetic matches `Standardizer::transform` bit for bit).
fn standardized_points(data: &Dataset, std: &Standardizer) -> Points {
    std.transform_points(data)
}

/// Position of the first maximum (strictly-greater comparison).
fn argmax(values: &[f64]) -> usize {
    let mut best = 0usize;
    for (p, &v) in values.iter().enumerate().skip(1) {
        if v > values[best] {
            best = p;
        }
    }
    best
}

/// The `k` members of `remaining` with the smallest `(distance, id)` —
/// the lexicographic tie-break keeps the selection a pure function of the
/// inputs. Returned in increasing-distance order.
///
/// Scans block-wise: once the candidate list is full, a block whose
/// (NaN-free) minimum distance exceeds the current k-th distance cannot
/// contribute a member, so it is skipped without per-element tuple
/// comparisons. Blocks containing a NaN are never skipped — NaN
/// candidates compare `PartialOrd`-false against the cutoff and *are*
/// inserted by the element loop, which the skip must not short-circuit.
/// Skipped blocks are tallied into `skips` (the caller flushes the
/// `sdc.mdav.block_skips` counter once per run).
fn k_nearest(remaining: &[usize], dists: &[f64], k: usize, skips: &mut u64) -> Vec<usize> {
    const BLOCK: usize = 32;
    let mut best: Vec<(f64, usize)> = Vec::with_capacity(k + 1);
    let mut p = 0usize;
    let n = dists.len();
    while p < n {
        let bl = BLOCK.min(n - p);
        if best.len() == k {
            let cutoff = best.last().expect("k >= 1").0;
            let mut bmin = f64::INFINITY;
            let mut has_nan = false;
            for &d in &dists[p..p + bl] {
                if d < bmin {
                    bmin = d;
                }
                has_nan |= d.is_nan();
            }
            if bmin > cutoff && !has_nan {
                p += bl;
                *skips += 1;
                continue;
            }
        }
        for q in p..p + bl {
            let cand = (dists[q], remaining[q]);
            if best.len() == k {
                let worst = *best.last().expect("k >= 1");
                if (cand.0, cand.1) >= (worst.0, worst.1) {
                    continue;
                }
                best.pop();
            }
            let at = best.partition_point(|&(d, i)| (d, i) < (cand.0, cand.1));
            best.insert(at, cand);
        }
        p += bl;
    }
    best.into_iter().map(|(_, id)| id).collect()
}

/// Fixed-size microaggregation: sorts records by their first principal
/// direction proxy (sum of standardized coordinates) and cuts consecutive
/// groups of `k`. Faster and simpler than MDAV, with higher information
/// loss — the ablation bench `ablate_microagg` quantifies the gap.
pub fn fixed_microaggregate(
    data: &Dataset,
    cols: &[usize],
    k: usize,
) -> Result<MicroaggregationResult> {
    validate(data, cols, k)?;
    let std = Standardizer::fit(data, cols);
    let points = standardized_points(data, &std);
    let mut order: Vec<usize> = (0..data.num_rows()).collect();
    order.sort_by(|&a, &b| {
        points
            .point(a)
            .iter()
            .sum::<f64>()
            .total_cmp(&points.point(b).iter().sum::<f64>())
    });
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut i = 0usize;
    while i < order.len() {
        let take = if order.len() - i < 2 * k {
            order.len() - i
        } else {
            k
        };
        groups.push(order[i..i + take].to_vec());
        i += take;
    }
    Ok(finish(data, cols, points, groups))
}

fn validate(data: &Dataset, cols: &[usize], k: usize) -> Result<()> {
    if k == 0 {
        return Err(Error::InvalidParameter(
            "microaggregation needs k >= 1".into(),
        ));
    }
    if data.num_rows() < k {
        return Err(Error::InvalidParameter(format!(
            "cannot form a group of {k} from {} records",
            data.num_rows()
        )));
    }
    for &c in cols {
        if !data.schema().attribute(c).kind.is_numeric() {
            return Err(Error::NotNumeric(data.schema().attribute(c).name.clone()));
        }
    }
    Ok(())
}

fn centroid_of(points: &Points, members: &[usize]) -> Vec<f64> {
    let d = points.dim();
    let mut c = vec![0.0; d];
    for &i in members {
        for (j, v) in points.point(i).iter().enumerate() {
            c[j] += v;
        }
    }
    for v in &mut c {
        *v /= members.len() as f64;
    }
    c
}

fn finish(
    data: &Dataset,
    cols: &[usize],
    points: Points,
    groups: Vec<Vec<usize>>,
) -> MicroaggregationResult {
    obs::observe_each(
        "sdc.microagg.group_size",
        groups.iter().map(|members| members.len() as u64),
    );
    let mut out = data.clone();
    // Raw-space centroid per column (means of original values), computed
    // over the contiguous column image and written straight into float
    // storage — the per-group accumulation order matches the row-major
    // original, so the means are bit-identical.
    for &col in cols {
        let cells = data.f64_cells(col).expect("numeric column");
        let means: Vec<f64> = groups
            .iter()
            .map(|members| {
                members.iter().filter_map(|&i| cells.get(i)).sum::<f64>() / members.len() as f64
            })
            .collect();
        let dst = out.float_col_mut(col).expect("numeric column");
        for (members, &mean) in groups.iter().zip(&means) {
            for &i in members {
                dst.set(i, Some(mean));
            }
        }
    }
    let mut group_of = vec![0usize; data.num_rows()];
    let mut sse = 0.0;
    for (gid, members) in groups.iter().enumerate() {
        let c = centroid_of(&points, members);
        for &i in members {
            sse += sq_euclidean(points.point(i), &c);
            group_of[i] = gid;
        }
    }
    let num_groups = groups.len();
    MicroaggregationResult {
        data: out,
        group_of,
        num_groups,
        sse,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdf_anonymity::is_k_anonymous;
    use tdf_microdata::patients;
    use tdf_microdata::synth::{patients as synth, PatientConfig};

    fn qi(data: &Dataset) -> Vec<usize> {
        data.schema().quasi_identifier_indices()
    }

    #[test]
    fn mdav_groups_have_size_between_k_and_2k_minus_1() {
        let d = synth(&PatientConfig {
            n: 200,
            ..Default::default()
        });
        for k in [2usize, 3, 5, 10] {
            let r = mdav_microaggregate(&d, &qi(&d), k).unwrap();
            let mut counts = vec![0usize; r.num_groups];
            for &g in &r.group_of {
                counts[g] += 1;
            }
            assert!(
                counts.iter().all(|&c| c >= k && c < 2 * k),
                "k = {k}: {counts:?}"
            );
        }
    }

    #[test]
    fn mdav_on_quasi_identifiers_yields_k_anonymity() {
        // The paper (§2, ref [12]): "microaggregation/condensation with
        // minimum group size k on the key attributes guarantees k-anonymity".
        let d = patients::dataset2();
        let r = mdav_microaggregate(&d, &qi(&d), 3).unwrap();
        assert!(is_k_anonymous(&r.data, 3));
    }

    #[test]
    fn fixed_microaggregation_also_k_anonymizes() {
        let d = synth(&PatientConfig {
            n: 157,
            ..Default::default()
        });
        let r = fixed_microaggregate(&d, &qi(&d), 4).unwrap();
        assert!(is_k_anonymous(&r.data, 4));
    }

    #[test]
    fn means_are_preserved_exactly() {
        let d = synth(&PatientConfig {
            n: 100,
            ..Default::default()
        });
        let r = mdav_microaggregate(&d, &qi(&d), 5).unwrap();
        for col in qi(&d) {
            let orig = tdf_microdata::stats::mean(&d.numeric_column(col)).unwrap();
            let masked = tdf_microdata::stats::mean(&r.data.numeric_column(col)).unwrap();
            assert!((orig - masked).abs() < 1e-6);
        }
    }

    #[test]
    fn mdav_beats_fixed_size_on_sse() {
        let d = synth(&PatientConfig {
            n: 300,
            ..Default::default()
        });
        let mdav = mdav_microaggregate(&d, &qi(&d), 5).unwrap();
        let fixed = fixed_microaggregate(&d, &qi(&d), 5).unwrap();
        assert!(
            mdav.sse <= fixed.sse * 1.05,
            "MDAV sse {} vs fixed sse {}",
            mdav.sse,
            fixed.sse
        );
    }

    #[test]
    fn confidential_columns_untouched_when_only_qi_aggregated() {
        let d = patients::dataset2();
        let r = mdav_microaggregate(&d, &qi(&d), 3).unwrap();
        for i in 0..d.num_rows() {
            assert_eq!(r.data.value(i, 2), d.value(i, 2));
        }
    }

    #[test]
    fn condensation_mode_masks_all_numeric_columns() {
        // Aggregating every numeric column = condensation [1].
        let d = patients::dataset2();
        let all_numeric = d.schema().numeric_indices();
        let r = mdav_microaggregate(&d, &all_numeric, 3).unwrap();
        // Blood pressure now shares centroids within groups.
        let groups = r.data.group_indices_by(&all_numeric);
        assert!(groups.values().all(|g| g.len() >= 3));
    }

    #[test]
    fn mdav_is_identical_across_thread_counts() {
        let d = synth(&PatientConfig {
            n: 250,
            ..Default::default()
        });
        let run = |t: usize| par::with_threads(t, || mdav_microaggregate(&d, &qi(&d), 4).unwrap());
        let (a, b) = (run(1), run(4));
        assert_eq!(a.group_of, b.group_of);
        assert_eq!(a.num_groups, b.num_groups);
        assert_eq!(a.sse.to_bits(), b.sse.to_bits());
    }

    #[test]
    fn rejects_bad_parameters() {
        let d = patients::dataset1();
        assert!(mdav_microaggregate(&d, &[0, 1], 0).is_err());
        assert!(mdav_microaggregate(&d, &[0, 1], 11).is_err());
        assert!(mdav_microaggregate(&d, &[3], 2).is_err()); // aids is boolean
    }

    #[test]
    fn k_equal_to_n_forms_single_group() {
        let d = patients::dataset1();
        let r = mdav_microaggregate(&d, &qi(&d), 10).unwrap();
        assert_eq!(r.num_groups, 1);
        assert!(is_k_anonymous(&r.data, 10));
    }
}
