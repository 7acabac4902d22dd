//! Sealed segments + one mutable tail: the out-of-core dataset.
//!
//! [`SegmentedDataset`] stores a growing table as a sequence of
//! *immutable sealed segments* plus one *mutable tail*:
//!
//! * appends go to the tail (an ordinary [`Dataset`]);
//! * [`SegmentedDataset::seal`] freezes the tail into a sealed segment —
//!   an `Arc<Dataset>` whose columns are never written again — and opens
//!   a fresh tail;
//! * sealed segments can **spill to disk** (the [`crate::segio`] binary
//!   codec) and reload on demand, so a dataset larger than RAM streams
//!   through the kernels one segment at a time;
//! * small sealed segments can be **compacted**
//!   ([`SegmentedDataset::compact`]): adjacent segments under a row floor
//!   merge into one sealed segment with a fresh stable id, so downstream
//!   per-segment anonymization forms batch-quality groups instead of
//!   fragment-sized ones.
//!
//! Residency is managed by an LRU pin cache with a byte budget, read
//! from `TDF_SEGCACHE` (plain bytes; unset means "never spill").
//! [`SegmentedDataset::pin`] returns a cheap `Arc` clone; a segment whose
//! `Arc` is still held by a caller is never evicted. Eviction writes the
//! segment image atomically (tmp file + rename) before dropping the
//! in-memory copy, so a crash — or the injected `segment.spill` fault —
//! can only ever lose the *disk* copy of a segment that is still
//! resident, never the data itself. By default the budget is enforced
//! synchronously on the ingest/pin path;
//! [`SegmentedDataset::enable_background_eviction`] moves enforcement to
//! a janitor thread so spills happen off the query path.
//!
//! Compaction is **atomic**: the merged images are built (and the
//! injected `segment.compact` crash is drawn) *before* any bookkeeping
//! changes, so a failed compaction leaves every old segment resident and
//! queryable. Eviction rounds draw the injected `segment.evict` fault
//! before touching anything, so a crashed round likewise leaves all
//! residents in place.
//!
//! Observability: `segment.seal`, `segment.spill`, `segment.spill_failed`,
//! `segment.reload`, `segment.reload_retry`, `segment.cache_hit`,
//! `segment.cache_evict`, `segment.compactions`, `segment.compact_merged`,
//! `segment.compact_failed`, `segment.evict_aborted` and
//! `segment.janitor_runs` counters, plus the `segment.resident_bytes` max
//! gauge.

use crate::dataset::Dataset;
use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::segio;
use crate::value::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Duration;

/// Distinguishes spill directories of concurrent `SegmentedDataset`s in
/// one process.
static INSTANCE: AtomicU64 = AtomicU64::new(0);

/// Immutable facts about one sealed segment.
#[derive(Debug, Clone, Copy)]
pub struct SegMeta {
    /// Stable id, assigned at seal time, unique within this dataset.
    pub id: u64,
    /// Number of rows.
    pub rows: usize,
    /// Global row index of the segment's first row.
    pub start_row: usize,
    /// Heap bytes charged against the cache budget.
    pub bytes: usize,
}

enum SegState {
    Resident {
        data: Arc<Dataset>,
        on_disk: Option<PathBuf>,
    },
    Spilled {
        path: PathBuf,
    },
}

/// One sealed segment's cache entry. Carries the id and byte charge so
/// eviction can run from the janitor thread without reaching back into
/// the dataset's metadata.
struct SegEntry {
    id: u64,
    bytes: usize,
    state: SegState,
}

struct Store {
    entries: Vec<SegEntry>,
    /// Segment indices, least-recently-pinned first. Invariant: exactly
    /// the resident entries, so the LRU list doubles as the resident set.
    lru: Vec<usize>,
    resident_bytes: usize,
    budget: usize,
    dir: PathBuf,
    dir_created: bool,
    /// When true, seal/pin update the gauge but leave budget enforcement
    /// to the janitor thread — spills happen off the query path.
    background: bool,
}

impl Store {
    fn touch(&mut self, idx: usize) {
        if let Some(pos) = self.lru.iter().position(|&i| i == idx) {
            self.lru.remove(pos);
        }
        self.lru.push(idx);
    }

    /// Evicts resident segments (least-recently-pinned first) until the
    /// resident bytes fit the budget. Pinned segments are skipped; a
    /// failed spill (e.g. the injected `segment.spill` crash) leaves the
    /// segment resident and stops eviction for this round, and the
    /// injected `segment.evict` crash aborts a round before it touches
    /// anything — either way no resident data is ever dropped.
    fn enforce_budget(&mut self) {
        while self.resident_bytes > self.budget {
            if faultkit::fire("segment.evict") {
                obs::count("segment.evict_aborted", 1);
                return; // injected janitor crash: everything stays resident
            }
            let candidates: Vec<usize> = self.lru.clone();
            let mut evicted = false;
            for idx in candidates {
                if self.resident_bytes <= self.budget {
                    return;
                }
                match self.try_evict(idx) {
                    Ok(true) => evicted = true,
                    Ok(false) => {}   // pinned: skip
                    Err(_) => return, // spill failed: data stays resident
                }
            }
            if !evicted {
                return; // everything left is pinned
            }
        }
    }

    /// Attempts to evict one segment. `Ok(true)` = evicted, `Ok(false)` =
    /// skipped because a caller still holds its pin, `Err` = spill write
    /// failed (segment stays resident, counted as `segment.spill_failed`).
    fn try_evict(&mut self, idx: usize) -> Result<bool> {
        let (data, on_disk) = match &self.entries[idx].state {
            SegState::Resident { data, on_disk } => (Arc::clone(data), on_disk.clone()),
            SegState::Spilled { .. } => return Ok(false),
        };
        // Two handles exist right now: the state's and ours. More means a
        // caller still reads through this segment — not evictable.
        if Arc::strong_count(&data) > 2 {
            return Ok(false);
        }
        let path = match on_disk {
            Some(p) => p,
            None => {
                if !self.dir_created {
                    std::fs::create_dir_all(&self.dir).map_err(|e| {
                        Error::Serial(format!("create {}: {e}", self.dir.display()))
                    })?;
                    // A previous process may have crashed mid-spill into
                    // this directory; drop its torn `.tmp` files before
                    // the first write of this incarnation.
                    segio::sweep_stale_tmp(&self.dir);
                    self.dir_created = true;
                }
                let p = self
                    .dir
                    .join(format!("seg-{}.tdfseg", self.entries[idx].id));
                if let Err(e) = segio::write_segment(&p, &data) {
                    obs::count("segment.spill_failed", 1);
                    return Err(e);
                }
                obs::count("segment.spill", 1);
                p
            }
        };
        let bytes = self.entries[idx].bytes;
        self.entries[idx].state = SegState::Spilled { path };
        self.resident_bytes -= bytes;
        if let Some(pos) = self.lru.iter().position(|&i| i == idx) {
            self.lru.remove(pos);
        }
        obs::count("segment.cache_evict", 1);
        Ok(true)
    }
}

/// Handle on the background-eviction thread; joined on drop or disable.
struct Janitor {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Janitor {
    fn shutdown(mut self) {
        {
            let (lock, cv) = &*self.stop;
            *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
            cv.notify_all();
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One compaction merge: which old sealed segments became which new one.
#[derive(Debug, Clone)]
pub struct CompactedRun {
    /// Stable id of the merged segment.
    pub new_id: u64,
    /// Ids of the consumed segments, in row order.
    pub old_ids: Vec<u64>,
    /// Rows in the merged segment (the sum over `old_ids`).
    pub rows: usize,
}

/// What one [`SegmentedDataset::compact`] call changed.
#[derive(Debug, Clone, Default)]
pub struct CompactionReport {
    /// The merges performed, in row order. Empty when nothing qualified.
    pub runs: Vec<CompactedRun>,
    /// Sealed segment count before the call.
    pub segments_before: usize,
    /// Sealed segment count after the call.
    pub segments_after: usize,
}

impl CompactionReport {
    /// True when at least one merge happened.
    pub fn merged_any(&self) -> bool {
        !self.runs.is_empty()
    }

    /// Ids of every consumed segment, across all runs.
    pub fn consumed_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs.iter().flat_map(|r| r.old_ids.iter().copied())
    }
}

/// A dataset stored as immutable sealed segments plus one mutable tail.
pub struct SegmentedDataset {
    schema: Schema,
    metas: Vec<SegMeta>,
    tail: Dataset,
    store: Arc<Mutex<Store>>,
    next_id: u64,
    janitor: Option<Janitor>,
}

impl SegmentedDataset {
    /// Empty segmented dataset; the cache budget comes from
    /// `TDF_SEGCACHE` (bytes; unset or unparsable means "never spill").
    pub fn new(schema: Schema) -> Self {
        let budget = std::env::var("TDF_SEGCACHE")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(usize::MAX);
        Self::with_cache_budget(schema, budget)
    }

    /// Empty segmented dataset with an explicit cache budget in bytes.
    pub fn with_cache_budget(schema: Schema, budget: usize) -> Self {
        let instance = INSTANCE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("tdf-seg-{}-{instance}", std::process::id()));
        Self {
            tail: Dataset::new(schema.clone()),
            schema,
            metas: Vec::new(),
            store: Arc::new(Mutex::new(Store {
                entries: Vec::new(),
                lru: Vec::new(),
                resident_bytes: 0,
                budget,
                dir,
                dir_created: false,
                background: false,
            })),
            next_id: 0,
            janitor: None,
        }
    }

    /// Segments an existing dataset: full chunks of `segment_rows` are
    /// sealed, the remainder (possibly empty) becomes the tail.
    pub fn from_dataset(data: &Dataset, segment_rows: usize) -> Self {
        assert!(segment_rows > 0, "segment_rows must be positive");
        let mut out = Self::new(data.schema().clone());
        let n = data.num_rows();
        let mut start = 0;
        while start + segment_rows <= n {
            let idx: Vec<usize> = (start..start + segment_rows).collect();
            out.tail = data.take(&idx);
            out.seal();
            start += segment_rows;
        }
        if start < n {
            let idx: Vec<usize> = (start..n).collect();
            out.tail = data.take(&idx);
        }
        out
    }

    /// The shared schema of every segment and the tail.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total rows across sealed segments and the tail.
    pub fn num_rows(&self) -> usize {
        self.sealed_rows() + self.tail.num_rows()
    }

    /// Rows in sealed segments only (the published prefix).
    pub fn sealed_rows(&self) -> usize {
        self.metas.last().map_or(0, |m| m.start_row + m.rows)
    }

    /// Number of sealed segments.
    pub fn num_segments(&self) -> usize {
        self.metas.len()
    }

    /// True when no row has been appended or sealed.
    pub fn is_empty(&self) -> bool {
        self.num_rows() == 0
    }

    /// Metadata of sealed segment `idx`.
    pub fn segment_meta(&self, idx: usize) -> SegMeta {
        self.metas[idx]
    }

    /// Ids of the sealed segments, in row order.
    pub fn segment_ids(&self) -> Vec<u64> {
        self.metas.iter().map(|m| m.id).collect()
    }

    /// The mutable tail (rows appended since the last seal).
    pub fn tail(&self) -> &Dataset {
        &self.tail
    }

    /// Appends a record to the tail after arity and type validation.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        self.tail.push_row(row)
    }

    /// Freezes the tail into a sealed segment and opens a fresh tail.
    /// Returns the new segment's id, or `None` when the tail is empty.
    pub fn seal(&mut self) -> Option<u64> {
        if self.tail.is_empty() {
            return None;
        }
        let sealed = std::mem::replace(&mut self.tail, Dataset::new(self.schema.clone()));
        let id = self.next_id;
        self.next_id += 1;
        let bytes = sealed.heap_bytes();
        let meta = SegMeta {
            id,
            rows: sealed.num_rows(),
            start_row: self.sealed_rows(),
            bytes,
        };
        self.metas.push(meta);
        let idx = self.metas.len() - 1;
        let mut store = self.store.lock().unwrap_or_else(|e| e.into_inner());
        store.entries.push(SegEntry {
            id,
            bytes,
            state: SegState::Resident {
                data: Arc::new(sealed),
                on_disk: None,
            },
        });
        store.resident_bytes += bytes;
        store.touch(idx);
        obs::count("segment.seal", 1);
        obs::gauge_max("segment.resident_bytes", store.resident_bytes as u64);
        if !store.background {
            store.enforce_budget();
        }
        Some(id)
    }

    /// Number of stable segment ids handed out so far (seals plus
    /// compaction merges — the ingest epoch). Ids are never reused.
    pub fn epoch(&self) -> u64 {
        self.next_id
    }

    /// Changes the cache budget (bytes) and immediately enforces it —
    /// unless background eviction is enabled, in which case the janitor
    /// picks the new budget up on its next pass.
    pub fn set_cache_budget(&self, budget: usize) {
        let mut store = self.store.lock().unwrap_or_else(|e| e.into_inner());
        store.budget = budget;
        if !store.background {
            store.enforce_budget();
        }
    }

    /// Bytes of sealed segments currently resident in memory.
    pub fn resident_bytes(&self) -> usize {
        self.store
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .resident_bytes
    }

    /// Moves budget enforcement off the seal/pin path onto a janitor
    /// thread that wakes every `poll` to spill cold segments down to the
    /// budget. Ingest and queries then never block on a spill write; the
    /// cache may transiently overshoot the budget by the rows pinned
    /// between two janitor passes. Idempotent.
    pub fn enable_background_eviction(&mut self, poll: Duration) {
        if self.janitor.is_some() {
            return;
        }
        {
            let mut store = self.store.lock().unwrap_or_else(|e| e.into_inner());
            store.background = true;
        }
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let stop_thread = Arc::clone(&stop);
        let weak: Weak<Mutex<Store>> = Arc::downgrade(&self.store);
        let handle = std::thread::Builder::new()
            .name("tdf-seg-janitor".to_owned())
            .spawn(move || loop {
                {
                    let (lock, cv) = &*stop_thread;
                    let stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
                    if *stopped {
                        return;
                    }
                    let (stopped, _) = cv
                        .wait_timeout(stopped, poll)
                        .unwrap_or_else(|e| e.into_inner());
                    if *stopped {
                        return;
                    }
                }
                let Some(store) = weak.upgrade() else { return };
                let mut store = store.lock().unwrap_or_else(|e| e.into_inner());
                if store.resident_bytes > store.budget {
                    obs::count("segment.janitor_runs", 1);
                    store.enforce_budget();
                }
            })
            .expect("spawn tdf-seg-janitor");
        self.janitor = Some(Janitor {
            stop,
            handle: Some(handle),
        });
    }

    /// Stops the janitor thread and restores synchronous budget
    /// enforcement, enforcing the budget once before returning.
    pub fn disable_background_eviction(&mut self) {
        if let Some(j) = self.janitor.take() {
            j.shutdown();
        }
        let mut store = self.store.lock().unwrap_or_else(|e| e.into_inner());
        store.background = false;
        store.enforce_budget();
    }

    /// Merges runs of adjacent small sealed segments (size-tiered: each
    /// run of segments under the `min_rows` floor closes once it has
    /// accumulated `min_rows` rows) into single sealed segments with
    /// fresh stable ids. Returns what changed; a report with no runs
    /// means nothing qualified.
    ///
    /// Global row order and indices are untouched — merged runs are
    /// adjacent, so every retained segment keeps its `start_row`. Old ids
    /// disappear from [`segment_ids`](Self::segment_ids), which is what
    /// signals downstream image caches (e.g. the epoch publisher) to
    /// re-mask the merged rows as one batch-quality group pool.
    ///
    /// The cutover is atomic with respect to failure: every merged image
    /// is materialized — and the injected `segment.compact` crash drawn —
    /// before any bookkeeping changes, so on `Err` the dataset is exactly
    /// as it was, every old segment still resident and queryable.
    pub fn compact(&mut self, min_rows: usize) -> Result<CompactionReport> {
        let before = self.metas.len();
        let mut report = CompactionReport {
            runs: Vec::new(),
            segments_before: before,
            segments_after: before,
        };
        if min_rows == 0 || before < 2 {
            return Ok(report);
        }
        // Plan: runs of >= 2 adjacent under-floor segments, each run
        // closed once it has accumulated the floor.
        let mut runs: Vec<(usize, usize)> = Vec::new();
        let mut i = 0;
        while i < before {
            if self.metas[i].rows >= min_rows {
                i += 1;
                continue;
            }
            let start = i;
            let mut sum = 0;
            while i < before && self.metas[i].rows < min_rows && sum < min_rows {
                sum += self.metas[i].rows;
                i += 1;
            }
            if i - start >= 2 {
                runs.push((start, i));
            }
        }
        if runs.is_empty() {
            return Ok(report);
        }
        // Build every merged image first; nothing is mutated yet, so any
        // reload error (or the injected crash below) aborts cleanly.
        let mut merged: Vec<Dataset> = Vec::with_capacity(runs.len());
        for &(s, e) in &runs {
            let mut out = Dataset::new(self.schema.clone());
            for idx in s..e {
                let part = self.pin(idx)?;
                out = out.union(&part)?;
            }
            merged.push(out);
        }
        if faultkit::fire("segment.compact") {
            obs::count("segment.compact_failed", 1);
            return Err(Error::Serial(
                "injected crash before compaction cutover (segment.compact)".into(),
            ));
        }
        // Cutover: rebuild metas and cache entries in one pass under the
        // store lock. Retained entries keep their LRU recency; merged
        // segments enter resident as the most recently touched.
        let mut store = self.store.lock().unwrap_or_else(|e| e.into_inner());
        let old_metas = std::mem::take(&mut self.metas);
        let mut old_entries: Vec<Option<SegEntry>> = std::mem::take(&mut store.entries)
            .into_iter()
            .map(Some)
            .collect();
        let old_lru = std::mem::take(&mut store.lru);
        let mut old_to_new: Vec<Option<usize>> = vec![None; before];
        let mut merged_indices: Vec<usize> = Vec::with_capacity(runs.len());
        let mut stale_files: Vec<PathBuf> = Vec::new();
        let mut consumed = 0u64;
        let mut runs_iter = runs.iter().peekable();
        let mut merged_iter = merged.into_iter();
        let mut idx = 0;
        while idx < before {
            if let Some(&&(s, e)) = runs_iter.peek() {
                if idx == s {
                    let data = merged_iter.next().expect("one image per run");
                    let id = self.next_id;
                    self.next_id += 1;
                    let rows = data.num_rows();
                    let bytes = data.heap_bytes();
                    report.runs.push(CompactedRun {
                        new_id: id,
                        old_ids: old_metas[s..e].iter().map(|m| m.id).collect(),
                        rows,
                    });
                    self.metas.push(SegMeta {
                        id,
                        rows,
                        start_row: old_metas[s].start_row,
                        bytes,
                    });
                    for slot in &mut old_entries[s..e] {
                        let entry = slot.take().expect("consumed once");
                        match entry.state {
                            SegState::Resident { on_disk, .. } => {
                                if let Some(p) = on_disk {
                                    stale_files.push(p);
                                }
                            }
                            SegState::Spilled { path } => stale_files.push(path),
                        }
                        consumed += 1;
                    }
                    merged_indices.push(store.entries.len());
                    store.entries.push(SegEntry {
                        id,
                        bytes,
                        state: SegState::Resident {
                            data: Arc::new(data),
                            on_disk: None,
                        },
                    });
                    runs_iter.next();
                    idx = e;
                    continue;
                }
            }
            old_to_new[idx] = Some(store.entries.len());
            self.metas.push(old_metas[idx]);
            store
                .entries
                .push(old_entries[idx].take().expect("retained once"));
            idx += 1;
        }
        store.lru = old_lru.iter().filter_map(|&i| old_to_new[i]).collect();
        store.lru.extend(merged_indices);
        store.resident_bytes = store
            .entries
            .iter()
            .filter(|e| matches!(e.state, SegState::Resident { .. }))
            .map(|e| e.bytes)
            .sum();
        report.segments_after = self.metas.len();
        obs::count("segment.compactions", report.runs.len() as u64);
        obs::count("segment.compact_merged", consumed);
        obs::gauge_max("segment.resident_bytes", store.resident_bytes as u64);
        if !store.background {
            store.enforce_budget();
        }
        drop(store);
        // Consumed spill files are garbage now; removal failures only
        // leave orphans in the per-instance dir, cleaned up on drop.
        for path in stale_files {
            let _ = std::fs::remove_file(path);
        }
        Ok(report)
    }

    /// Pins sealed segment `idx` into memory, reloading it from disk if
    /// it was spilled, and returns a shared handle. The segment cannot be
    /// evicted while the handle is alive.
    pub fn pin(&self, idx: usize) -> Result<Arc<Dataset>> {
        let meta = self.metas[idx];
        let mut store = self.store.lock().unwrap_or_else(|e| e.into_inner());
        match &store.entries[idx].state {
            SegState::Resident { data, .. } => {
                let data = Arc::clone(data);
                store.touch(idx);
                obs::count("segment.cache_hit", 1);
                Ok(data)
            }
            SegState::Spilled { path } => {
                let loaded = segio::read_segment(path)?;
                if loaded.schema() != &self.schema || loaded.num_rows() != meta.rows {
                    return Err(Error::Serial(format!(
                        "reloaded segment {} does not match its metadata",
                        meta.id
                    )));
                }
                let path = path.clone();
                let data = Arc::new(loaded);
                store.entries[idx].state = SegState::Resident {
                    data: Arc::clone(&data),
                    on_disk: Some(path),
                };
                store.resident_bytes += meta.bytes;
                store.touch(idx);
                obs::count("segment.reload", 1);
                obs::gauge_max("segment.resident_bytes", store.resident_bytes as u64);
                if !store.background {
                    store.enforce_budget();
                }
                Ok(data)
            }
        }
    }

    /// Spills every evictable resident segment regardless of the budget
    /// (tests and shutdown). Returns the number of segments spilled.
    pub fn spill_all(&self) -> usize {
        let mut store = self.store.lock().unwrap_or_else(|e| e.into_inner());
        let before = store.lru.len();
        let candidates: Vec<usize> = store.lru.clone();
        for idx in candidates {
            let _ = store.try_evict(idx);
        }
        before - store.lru.len()
    }

    /// Streams every part — sealed segments in row order, then the
    /// non-empty tail — through `f`, pinning one segment at a time. The
    /// second argument is the part's global start row.
    pub fn for_each_part<F>(&self, mut f: F) -> Result<()>
    where
        F: FnMut(&Dataset, usize) -> Result<()>,
    {
        for idx in 0..self.metas.len() {
            let part = self.pin(idx)?;
            f(&part, self.metas[idx].start_row)?;
        }
        if !self.tail.is_empty() {
            f(&self.tail, self.sealed_rows())?;
        }
        Ok(())
    }

    /// Materializes the whole table into one in-memory [`Dataset`]
    /// (compatibility shim — defeats the out-of-core purpose; kernels
    /// should stream through [`SegmentedDataset::for_each_part`]).
    pub fn materialize(&self) -> Result<Dataset> {
        let mut out = Dataset::new(self.schema.clone());
        self.for_each_part(|part, _| {
            out = out.union(part)?;
            Ok(())
        })?;
        Ok(out)
    }
}

impl Drop for SegmentedDataset {
    fn drop(&mut self) {
        if let Some(j) = self.janitor.take() {
            j.shutdown();
        }
        let store = self.store.lock().unwrap_or_else(|e| e.into_inner());
        if store.dir_created {
            let _ = std::fs::remove_dir_all(&store.dir);
        }
    }
}

impl std::fmt::Debug for SegmentedDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentedDataset")
            .field("segments", &self.metas.len())
            .field("sealed_rows", &self.sealed_rows())
            .field("tail_rows", &self.tail.num_rows())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{patients, PatientConfig};

    fn sample(n: usize) -> Dataset {
        patients(&PatientConfig {
            n,
            ..Default::default()
        })
    }

    fn assert_bit_identical(a: &Dataset, b: &Dataset) {
        assert_eq!(a.schema(), b.schema());
        assert_eq!(a.num_rows(), b.num_rows());
        for c in 0..a.num_columns() {
            for i in 0..a.num_rows() {
                match (a.value(i, c), b.value(i, c)) {
                    (Value::Float(x), Value::Float(y)) => {
                        assert_eq!(x.to_bits(), y.to_bits(), "row {i} col {c}")
                    }
                    (x, y) => assert_eq!(x, y, "row {i} col {c}"),
                }
            }
        }
    }

    #[test]
    fn append_seal_preserves_row_order() {
        let d = sample(100);
        let mut seg = SegmentedDataset::new(d.schema().clone());
        for i in 0..d.num_rows() {
            seg.push_row(d.row(i)).unwrap();
            if (i + 1) % 32 == 0 {
                seg.seal().unwrap();
            }
        }
        assert_eq!(seg.num_segments(), 3);
        assert_eq!(seg.tail().num_rows(), 4);
        assert_eq!(seg.num_rows(), 100);
        assert_bit_identical(&seg.materialize().unwrap(), &d);
    }

    #[test]
    fn from_dataset_round_trips_through_materialize() {
        let d = sample(75);
        let seg = SegmentedDataset::from_dataset(&d, 30);
        assert_eq!(seg.num_segments(), 2);
        assert_eq!(seg.tail().num_rows(), 15);
        assert_bit_identical(&seg.materialize().unwrap(), &d);
    }

    #[test]
    fn tiny_budget_spills_and_reloads_exactly() {
        let d = sample(200);
        let seg = SegmentedDataset::from_dataset(&d, 40);
        assert_eq!(seg.num_segments(), 5);
        // A budget below one segment's footprint forces every unpinned
        // segment out; reads then stream through spill files.
        seg.set_cache_budget(seg.segment_meta(0).bytes / 2);
        assert_eq!(seg.resident_bytes(), 0);
        assert_bit_identical(&seg.materialize().unwrap(), &d);
    }

    #[test]
    fn pinned_segments_are_never_evicted() {
        let d = sample(120);
        let seg = SegmentedDataset::from_dataset(&d, 40);
        let pinned = seg.pin(0).unwrap();
        seg.set_cache_budget(0);
        // Segment 0 is pinned: it must stay resident and readable even
        // though the budget is zero.
        assert!(seg.resident_bytes() >= seg.segment_meta(0).bytes);
        assert_eq!(pinned.num_rows(), 40);
        drop(pinned);
        // Once released, the budget applies.
        seg.set_cache_budget(0);
        assert_eq!(seg.resident_bytes(), 0);
    }

    #[test]
    fn spill_all_then_stream_matches() {
        let d = sample(90);
        let seg = SegmentedDataset::from_dataset(&d, 30);
        assert_eq!(seg.spill_all(), 3);
        let mut rows = 0;
        seg.for_each_part(|part, base| {
            assert_eq!(base, rows);
            rows += part.num_rows();
            Ok(())
        })
        .unwrap();
        assert_eq!(rows, 90);
    }

    #[test]
    fn seal_of_empty_tail_is_none() {
        let d = sample(10);
        let mut seg = SegmentedDataset::from_dataset(&d, 10);
        assert_eq!(seg.epoch(), 1);
        assert_eq!(seg.seal(), None);
        assert_eq!(seg.epoch(), 1);
    }

    #[test]
    fn compaction_merges_small_runs_and_preserves_everything() {
        let d = sample(165);
        // 16 sealed segments of 10 rows + a 5-row tail.
        let mut seg = SegmentedDataset::from_dataset(&d, 10);
        seg.push_row(d.row(0)).unwrap(); // distinct tail content
        let ids_before = seg.segment_ids();
        assert_eq!(seg.num_segments(), 16);

        // Floor 40: runs close at 40 accumulated rows → four merges of
        // four segments each.
        let report = seg.compact(40).unwrap();
        assert_eq!(report.segments_before, 16);
        assert_eq!(report.segments_after, 4);
        assert_eq!(report.runs.len(), 4);
        assert!(report.merged_any());
        for run in &report.runs {
            assert_eq!(run.old_ids.len(), 4);
            assert_eq!(run.rows, 40);
            // Fresh ids, never one of the consumed.
            assert!(!ids_before.contains(&run.new_id));
        }
        assert_eq!(report.consumed_ids().count(), 16);

        // Rows, order and global indices unchanged; tail untouched.
        assert_eq!(seg.num_rows(), 166);
        assert_eq!(seg.tail().num_rows(), 6);
        for (idx, expect_start) in [(0usize, 0usize), (1, 40), (2, 80), (3, 120)] {
            assert_eq!(seg.segment_meta(idx).start_row, expect_start);
        }
        let materialized = seg.materialize().unwrap();
        let mut expect = d.clone();
        expect.push_row(d.row(0)).unwrap();
        assert_bit_identical(&materialized, &expect);

        // Idempotent: everything is at the floor now.
        let again = seg.compact(40).unwrap();
        assert!(!again.merged_any());
    }

    #[test]
    fn compaction_skips_large_segments_and_singleton_runs() {
        let d = sample(100);
        let mut seg = SegmentedDataset::new(d.schema().clone());
        // Layout: 40-row, 10-row, 40-row, 10-row — the small segments are
        // not adjacent, so no run has two members.
        for (start, len) in [(0usize, 40usize), (40, 10), (50, 40), (90, 10)] {
            for i in start..start + len {
                seg.push_row(d.row(i)).unwrap();
            }
            seg.seal().unwrap();
        }
        let ids = seg.segment_ids();
        let report = seg.compact(20).unwrap();
        assert!(!report.merged_any());
        assert_eq!(seg.segment_ids(), ids);
        assert_bit_identical(&seg.materialize().unwrap(), &d);
    }

    #[test]
    fn compaction_works_on_spilled_segments_and_drops_their_files() {
        let d = sample(120);
        let mut seg = SegmentedDataset::from_dataset(&d, 10);
        assert_eq!(seg.spill_all(), 12);
        let report = seg.compact(60).unwrap();
        assert_eq!(report.segments_after, 2);
        assert_bit_identical(&seg.materialize().unwrap(), &d);
        // Merged images are resident; spilling again round-trips.
        seg.spill_all();
        assert_bit_identical(&seg.materialize().unwrap(), &d);
    }

    #[test]
    fn background_janitor_spills_cold_segments_off_the_query_path() {
        let d = sample(200);
        let mut seg = SegmentedDataset::from_dataset(&d, 40);
        seg.enable_background_eviction(Duration::from_millis(2));
        seg.set_cache_budget(0);
        // The janitor owns enforcement now; the budget is reached without
        // any further call on the query path.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while seg.resident_bytes() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "janitor never drained the cache"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_bit_identical(&seg.materialize().unwrap(), &d);
        seg.disable_background_eviction();
        // Synchronous enforcement is back.
        assert_eq!(seg.resident_bytes(), 0);
    }
}
