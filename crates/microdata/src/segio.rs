//! Hermetic binary codec for sealed segments (the spill format).
//!
//! Sits next to the hand-rolled TSV/JSON codecs in [`crate::ser`], but
//! writes the *columnar* buffers directly — `f64`/`i64` payloads, packed
//! bitmap words, dictionary pools and `u32` codes — so a spill/reload
//! round-trip is bit-exact (float cells keep their bits, dictionary order
//! and codes are preserved, missing bitmaps survive verbatim).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic     8  b"TDFSEG2\0"
//! ncols     4  u32
//! per col:     name (u32 len + UTF-8 bytes), kind u8, role u8
//! nrows     8  u64
//! per col:     layout u8 (0 float / 1 int / 2 bool / 3 cat) + payload
//!   float:     nrows f64, missing bitmap words
//!   int:       nrows i64, missing bitmap words
//!   bool:      data bitmap words, missing bitmap words
//!   cat:       u32 pool len; per value u8 tag (0 Str / 1 Int) + payload;
//!              nrows u32 codes, missing bitmap words
//! checksum  8  XXH64 (seed 0) over every preceding byte
//! ```
//!
//! The checksum is verified before any decoding: a torn write, a flipped
//! bit, or an injected `segment.reload` corruption is a typed
//! [`Error::Serial`], never a silently wrong segment. It is an integrity
//! check against torn or flipped bytes, not a MAC: anyone who can write
//! the spill directory can forge a matching trailer. XXH64 folds 32-byte
//! stripes through four independent lanes, so a reload costs about what
//! reading its bytes costs; every step it takes is a bijection in the
//! changed word or byte, so any single changed word or byte changes the
//! sum. An image whose checksum holds but whose lengths do not fit the
//! bytes that follow is still a typed error, never a panic or a huge
//! allocation. Only the process that spilled an image reads it back, so
//! the format carries no version negotiation: an image under another
//! magic is simply an error.
//!
//! Writes go through a temporary file renamed into place only after the
//! full image (including the checksum) is on disk, so a crash mid-spill
//! — injected through the `segment.spill` fault site — leaves at worst a
//! stale `.tmp` file and never a truncated segment under the final name.

use crate::attribute::{AttributeDef, AttributeKind, AttributeRole};
use crate::bitmap::Bitmap;
use crate::column::{BoolCol, CatCol, Column, FloatCol, IntCol};
use crate::dataset::Dataset;
use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::value::Value;
use std::fs;
use std::io::Write as _;
use std::path::Path;

const MAGIC: &[u8; 8] = b"TDFSEG2\0";

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn xxh_merge(acc: u64, lane: u64) -> u64 {
    (acc ^ xxh_round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

/// XXH64 with seed 0 (Collet's xxHash specification) — the trailer
/// checksum.
fn xxh64(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let mut rest = stripes.remainder();
    let mut h = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            for (lane, word) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = xxh_round(*lane, read_u64(word));
            }
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &lane| xxh_merge(h, lane))
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    while rest.len() >= 8 {
        h ^= xxh_round(0, read_u64(rest));
        h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        h ^= (u32::from_le_bytes(rest[..4].try_into().unwrap()) as u64).wrapping_mul(P1);
        h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h ^= (b as u64).wrapping_mul(P5);
        h = h.rotate_left(11).wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

fn kind_tag(kind: AttributeKind) -> u8 {
    match kind {
        AttributeKind::Continuous => 0,
        AttributeKind::Integer => 1,
        AttributeKind::Nominal => 2,
        AttributeKind::Ordinal => 3,
        AttributeKind::Boolean => 4,
    }
}

fn kind_from_tag(tag: u8) -> Result<AttributeKind> {
    Ok(match tag {
        0 => AttributeKind::Continuous,
        1 => AttributeKind::Integer,
        2 => AttributeKind::Nominal,
        3 => AttributeKind::Ordinal,
        4 => AttributeKind::Boolean,
        _ => return Err(Error::Serial(format!("unknown attribute kind tag {tag}"))),
    })
}

fn role_tag(role: AttributeRole) -> u8 {
    match role {
        AttributeRole::Identifier => 0,
        AttributeRole::QuasiIdentifier => 1,
        AttributeRole::Confidential => 2,
        AttributeRole::NonConfidential => 3,
    }
}

fn role_from_tag(tag: u8) -> Result<AttributeRole> {
    Ok(match tag {
        0 => AttributeRole::Identifier,
        1 => AttributeRole::QuasiIdentifier,
        2 => AttributeRole::Confidential,
        3 => AttributeRole::NonConfidential,
        _ => return Err(Error::Serial(format!("unknown attribute role tag {tag}"))),
    })
}

fn put_bitmap(out: &mut Vec<u8>, b: &Bitmap, nrows: usize) {
    debug_assert_eq!(b.len(), nrows, "bitmap length mismatch");
    for &w in b.words() {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encodes `data` into the segment image (checksum trailer included).
pub fn encode_segment(data: &Dataset) -> Vec<u8> {
    let nrows = data.num_rows();
    let mut out = Vec::with_capacity(64 + data.heap_bytes());
    out.extend_from_slice(MAGIC);
    let schema = data.schema();
    out.extend_from_slice(&(schema.len() as u32).to_le_bytes());
    for a in schema.attributes() {
        put_str(&mut out, &a.name);
        out.push(kind_tag(a.kind));
        out.push(role_tag(a.role));
    }
    out.extend_from_slice(&(nrows as u64).to_le_bytes());
    for col in data.columns() {
        match col {
            Column::Float(c) => {
                out.push(0);
                for &v in c.values() {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                put_bitmap(&mut out, c.missing(), nrows);
            }
            Column::Int(c) => {
                out.push(1);
                for &v in c.values() {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                put_bitmap(&mut out, c.missing(), nrows);
            }
            Column::Bool(c) => {
                out.push(2);
                put_bitmap(&mut out, c.bits(), nrows);
                put_bitmap(&mut out, c.missing(), nrows);
            }
            Column::Cat(c) => {
                out.push(3);
                out.extend_from_slice(&(c.pool().len() as u32).to_le_bytes());
                for v in c.pool() {
                    match v {
                        Value::Str(s) => {
                            out.push(0);
                            put_str(&mut out, s);
                        }
                        Value::Int(i) => {
                            out.push(1);
                            out.extend_from_slice(&i.to_le_bytes());
                        }
                        other => unreachable!("non-categorical pool value {other:?}"),
                    }
                }
                for &code in c.codes() {
                    out.extend_from_slice(&code.to_le_bytes());
                }
                put_bitmap(&mut out, c.missing(), nrows);
            }
        }
    }
    let sum = xxh64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// The checksum trailer of an image from [`encode_segment`]: a `u64`
/// that changes whenever any stored byte of the dataset does.
pub fn image_checksum(image: &[u8]) -> u64 {
    read_u64(&image[image.len() - 8..])
}

/// Byte cursor over a segment image.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(Error::Serial("segment image truncated".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes `nrows` items of `width` bytes, a length read from the image.
    fn take_rows(&mut self, nrows: usize, width: usize) -> Result<&'a [u8]> {
        let n = nrows
            .checked_mul(width)
            .ok_or_else(|| Error::Serial("segment row count overflows".into()))?;
        self.take(n)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| Error::Serial("segment string not UTF-8".into()))
    }

    fn bitmap(&mut self, nrows: usize) -> Result<Bitmap> {
        let nwords = nrows.div_ceil(64);
        let raw = self.take(nwords * 8)?;
        let words = raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok(Bitmap::from_words(words, nrows))
    }
}

/// Decodes a segment image, verifying the checksum first.
pub fn decode_segment(bytes: &[u8]) -> Result<Dataset> {
    if bytes.len() < MAGIC.len() + 8 {
        return Err(Error::Serial("segment image truncated".into()));
    }
    let body = &bytes[..bytes.len() - 8];
    if xxh64(body) != image_checksum(bytes) {
        return Err(Error::Serial("segment checksum mismatch".into()));
    }
    let mut cur = Cursor {
        bytes: body,
        pos: 0,
    };
    if cur.take(MAGIC.len())? != MAGIC {
        return Err(Error::Serial("bad segment magic".into()));
    }
    // Counts read from the image only bound a capacity by the bytes that
    // remain: a forged count fails as truncated, not in the allocator.
    let ncols = cur.u32()? as usize;
    let mut attrs = Vec::with_capacity(ncols.min(cur.remaining()));
    for _ in 0..ncols {
        let name = cur.str()?;
        let kind = kind_from_tag(cur.u8()?)?;
        let role = role_from_tag(cur.u8()?)?;
        attrs.push(AttributeDef::new(name, kind, role));
    }
    let schema = Schema::new(attrs)?;
    let nrows = cur.u64()? as usize;
    let mut columns = Vec::with_capacity(ncols.min(cur.remaining()));
    for _ in 0..ncols {
        let layout = cur.u8()?;
        columns.push(match layout {
            0 => {
                let raw = cur.take_rows(nrows, 8)?;
                let data = raw
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                Column::Float(FloatCol::from_parts(data, cur.bitmap(nrows)?))
            }
            1 => {
                let raw = cur.take_rows(nrows, 8)?;
                let data = raw
                    .chunks_exact(8)
                    .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                Column::Int(IntCol::from_parts(data, cur.bitmap(nrows)?))
            }
            2 => {
                let data = cur.bitmap(nrows)?;
                Column::Bool(BoolCol::from_parts(data, cur.bitmap(nrows)?))
            }
            3 => {
                let pool_len = cur.u32()? as usize;
                let mut pool = Vec::with_capacity(pool_len.min(cur.remaining()));
                for _ in 0..pool_len {
                    pool.push(match cur.u8()? {
                        0 => Value::Str(cur.str()?),
                        1 => Value::Int(cur.u64()? as i64),
                        t => {
                            return Err(Error::Serial(format!("unknown pool value tag {t}")));
                        }
                    });
                }
                let raw = cur.take_rows(nrows, 4)?;
                let codes: Vec<u32> = raw
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                if codes.iter().any(|&c| (c as usize) >= pool_len.max(1)) {
                    return Err(Error::Serial("dictionary code out of range".into()));
                }
                Column::Cat(CatCol::from_parts(pool, codes, cur.bitmap(nrows)?))
            }
            t => return Err(Error::Serial(format!("unknown column layout tag {t}"))),
        });
    }
    if cur.pos != body.len() {
        return Err(Error::Serial("trailing bytes after segment payload".into()));
    }
    Dataset::from_columns(schema, columns)
}

fn io_err(ctx: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Serial(format!("{ctx} {}: {e}", path.display()))
}

/// Spills `data` to `path` atomically: the image is written to
/// `<path>.tmp` and renamed into place only once complete.
///
/// The `segment.spill` fault site simulates a crash mid-write: a
/// truncated `.tmp` is left behind (as a real crash would) and a typed
/// error returned — the final path is never touched, so an existing
/// on-disk copy and the in-memory sealed segment both stay intact.
pub fn write_segment(path: &Path, data: &Dataset) -> Result<()> {
    let image = encode_segment(data);
    let tmp = path.with_extension("tmp");
    let mut f = fs::File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
    if faultkit::fire("segment.spill") {
        // Crash mid-write: half the image reaches disk, the rename never
        // happens. Recovery is simply re-running the spill.
        let _ = f.write_all(&image[..image.len() / 2]);
        drop(f);
        return Err(Error::Serial(format!(
            "injected spill crash writing {}",
            tmp.display()
        )));
    }
    f.write_all(&image).map_err(|e| io_err("write", &tmp, e))?;
    f.sync_all().map_err(|e| io_err("sync", &tmp, e))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| io_err("rename", &tmp, e))?;
    Ok(())
}

/// Removes stale `*.tmp` files left in `dir` by crashed spill attempts,
/// returning how many were swept (counted as `segment.tmp_swept`).
///
/// A crash between `File::create(tmp)` and the rename leaves the torn
/// `.tmp` behind; it can never shadow a committed segment (readers only
/// open the final name) but it wastes space and, worse, a later clean
/// spill of the same segment would transiently reuse the torn file's
/// name. Sweeping on directory open restores the invariant that every
/// `.tmp` present belongs to an in-flight write.
pub fn sweep_stale_tmp(dir: &Path) -> usize {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    let mut swept = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "tmp") && fs::remove_file(&path).is_ok() {
            swept += 1;
        }
    }
    if swept > 0 {
        obs::count("segment.tmp_swept", swept as u64);
    }
    swept
}

/// Reloads a spilled segment from `path`, verifying the checksum.
///
/// The `segment.reload` fault site corrupts the in-memory read buffer
/// (one flipped byte); the checksum catches it and the read is retried
/// from the intact file, up to three attempts.
pub fn read_segment(path: &Path) -> Result<Dataset> {
    let mut last = Error::Serial("segment reload failed".into());
    for attempt in 0..3 {
        if attempt > 0 {
            obs::count("segment.reload_retry", 1);
        }
        let mut bytes = fs::read(path).map_err(|e| io_err("read", path, e))?;
        if faultkit::fire("segment.reload") && !bytes.is_empty() {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
        }
        match decode_segment(&bytes) {
            Ok(d) => return Ok(d),
            Err(e) => last = e,
        }
    }
    Err(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{patients, PatientConfig};

    fn sample() -> Dataset {
        let mut d = patients(&PatientConfig {
            n: 130,
            ..Default::default()
        });
        d.set_value(7, 0, Value::Missing).unwrap();
        d.set_value(64, 2, Value::Missing).unwrap();
        d
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let d = sample();
        let image = encode_segment(&d);
        let back = decode_segment(&image).unwrap();
        assert_eq!(back.schema(), d.schema());
        assert_eq!(back.num_rows(), d.num_rows());
        for c in 0..d.num_columns() {
            for i in 0..d.num_rows() {
                let (a, b) = (d.value(i, c), back.value(i, c));
                match (&a, &b) {
                    (Value::Float(x), Value::Float(y)) => {
                        assert_eq!(x.to_bits(), y.to_bits(), "row {i} col {c}")
                    }
                    _ => assert_eq!(a, b, "row {i} col {c}"),
                }
            }
        }
    }

    #[test]
    fn xxh64_matches_the_published_vectors() {
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        // 39 bytes: one full 32-byte stripe, then the 8-, 4- and 1-byte
        // tail steps.
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }

    #[test]
    fn every_flipped_bit_is_caught() {
        let mut image = encode_segment(&sample());
        // Exhaustive: every corruption must surface as a typed error,
        // never a silently wrong dataset.
        for pos in 0..image.len() {
            for bit in 0..8 {
                image[pos] ^= 1 << bit;
                assert!(
                    matches!(decode_segment(&image), Err(Error::Serial(_))),
                    "flip of bit {bit} at byte {pos} went undetected"
                );
                image[pos] ^= 1 << bit;
            }
        }
        assert!(decode_segment(&image).is_ok());
    }

    #[test]
    fn truncations_are_typed_errors() {
        let image = encode_segment(&sample());
        for keep in 0..image.len() {
            assert!(
                matches!(decode_segment(&image[..keep]), Err(Error::Serial(_))),
                "kept {keep}"
            );
        }
    }

    /// Appends a valid trailer to a hand-built image body.
    fn seal(mut body: Vec<u8>) -> Vec<u8> {
        let sum = xxh64(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        body
    }

    /// An image body up to one column's layout tag: magic, a one-column
    /// schema (`kind`, `role`), `nrows`, `layout`.
    fn one_column_header(kind: u8, role: u8, nrows: u64, layout: u8) -> Vec<u8> {
        let mut body = MAGIC.to_vec();
        body.extend_from_slice(&1u32.to_le_bytes());
        put_str(&mut body, "x");
        body.extend_from_slice(&[kind, role]);
        body.extend_from_slice(&nrows.to_le_bytes());
        body.push(layout);
        body
    }

    #[test]
    fn the_previous_format_is_a_typed_error() {
        let mut image = encode_segment(&sample());
        image[..8].copy_from_slice(b"TDFSEG1\0");
        image.truncate(image.len() - 8);
        let old = seal(image);
        match decode_segment(&old) {
            Err(Error::Serial(m)) => assert!(m.contains("magic"), "{m}"),
            other => panic!("TDFSEG1 image decoded: {other:?}"),
        }
    }

    #[test]
    fn forged_lengths_under_a_valid_checksum_are_typed_errors() {
        // A row count whose byte length overflows usize.
        let rows = seal(one_column_header(0, 2, 1 << 61, 0));
        assert!(matches!(decode_segment(&rows), Err(Error::Serial(_))));
        // Column and dictionary counts far beyond the bytes that follow.
        let mut cols = MAGIC.to_vec();
        cols.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_segment(&seal(cols)), Err(Error::Serial(_))));
        let mut pool = one_column_header(2, 1, 0, 3);
        pool.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_segment(&seal(pool)), Err(Error::Serial(_))));
    }

    #[test]
    fn crashed_tmp_never_shadows_a_later_clean_write() {
        let dir = std::env::temp_dir().join(format!("tdf_segio_shadow_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg_0.bin");
        let d = sample();
        // Simulate the crash image write_segment leaves behind: a torn
        // .tmp next to the (absent) final path.
        let torn = encode_segment(&d);
        fs::write(path.with_extension("tmp"), &torn[..torn.len() / 2]).unwrap();
        // A later clean write must land the full image under the final
        // name regardless of the stale tmp.
        write_segment(&path, &d).unwrap();
        let back = read_segment(&path).unwrap();
        assert_eq!(back.num_rows(), d.num_rows());
        assert!(
            !path.with_extension("tmp").exists(),
            "clean write consumed the tmp name"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_removes_stale_tmp_and_leaves_segments() {
        let dir = std::env::temp_dir().join(format!("tdf_segio_sweep_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let d = sample();
        write_segment(&dir.join("seg_0.bin"), &d).unwrap();
        fs::write(dir.join("seg_1.tmp"), b"torn").unwrap();
        fs::write(dir.join("seg_2.tmp"), b"").unwrap();
        assert_eq!(sweep_stale_tmp(&dir), 2);
        assert!(dir.join("seg_0.bin").exists(), "real segments survive");
        assert!(!dir.join("seg_1.tmp").exists());
        assert_eq!(sweep_stale_tmp(&dir), 0, "idempotent");
        assert_eq!(
            sweep_stale_tmp(&dir.join("no_such")),
            0,
            "missing dir is a no-op"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn categorical_dictionaries_survive_with_codes_intact() {
        use crate::attribute::{AttributeDef, AttributeKind, AttributeRole};
        let schema = Schema::new(vec![AttributeDef::new(
            "city",
            AttributeKind::Nominal,
            AttributeRole::QuasiIdentifier,
        )])
        .unwrap();
        let mut d = Dataset::new(schema);
        for v in ["b", "a", "b", "c"] {
            d.push_row(vec![v.into()]).unwrap();
        }
        d.push_row(vec![Value::Missing]).unwrap();
        let back = decode_segment(&encode_segment(&d)).unwrap();
        let (orig, got) = (d.col(0), back.col(0));
        let (orig, got) = (orig.as_cat().unwrap(), got.as_cat().unwrap());
        assert_eq!(orig.pool(), got.pool(), "dictionary order preserved");
        assert_eq!(orig.codes(), got.codes(), "codes preserved");
        assert!(got.is_missing(4));
    }
}
