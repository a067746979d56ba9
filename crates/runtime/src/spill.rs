//! Out-of-core (spilling) operator variants and the spill-file substrate.
//!
//! When the governor's soft watermark flips a run into spill mode (see
//! `xqr_xml::limits`), the three memory-bound operators switch to the
//! variants in this module:
//!
//! * **Grace-style partitioned hash join** ([`grace_join`]) — the build
//!   (inner) side is scattered into hash partitions on disk by its
//!   `(value, type)` join keys; each partition is loaded, indexed, and
//!   probed independently, and a partition that still exceeds the working
//!   budget is recursively repartitioned with a depth-salted hash (capped
//!   at [`MAX_DEPTH`]). Matches are collected as `(outer, inner)` index
//!   pairs and re-emitted in the outer order with per-outer matches in
//!   inner order — exactly the order semantics of the in-memory join cursor.
//! * **Partitioned group-by** ([`GroupSpill`]) — per-item results are
//!   extracted *before* spilling, then `(key, representative, items)`
//!   frames are routed to partition files by key hash; equal keys land in
//!   one file in arrival order, so the per-partition merge reproduces the
//!   in-memory operator's representative-is-first-tuple and
//!   items-in-input-order semantics, and a final key sort restores the
//!   global output order.
//! * **External merge sort** ([`external_sort`]) — bounded sorted runs are
//!   spilled and k-way merged ([`MERGE_FANIN`] at a time, multi-pass when
//!   needed), with ties broken by run index so the sort stays stable.
//!
//! ## Spill files
//!
//! A [`SpillFile`] is a temp file of length-prefixed, CRC-checked frames
//! under a per-query [`SpillManager`] directory
//! (`<parent>/xqr-spill-<pid>-<n>`; parent from `Limits::with_spill_dir`,
//! then `XQR_SPILL_DIR`, then the system temp dir). Files delete
//! themselves on drop and the manager removes the whole directory on drop
//! — the manager lives in the `Ctx`, which the engine drops on every exit
//! path including `catch_unwind`, so cancelled and panicking queries leak
//! nothing. Every write charges the governor's disk budget (`XQRG0006` on
//! exhaustion).
//!
//! Nodes spill *by reference*: an `Item::Node` frame stores a document
//! slot in the file's pin table (which keeps the `Rc<Document>` alive)
//! plus the node id — consistent with the governor's flat per-item byte
//! estimate, and lossless because the arena store never moves nodes.
//!
//! ## Transient-failure handling
//!
//! Every I/O call goes through [`retry_io`], a thin adapter over the
//! shared `xqr_xml::retry` policy: 3 attempts with capped jittered
//! backoff whose sleeps are trimmed to the governor's remaining
//! deadline, a failpoint evaluation per attempt
//! (`spill::open`, `spill::write`, `spill::read`), and `XQRG0005` when
//! the attempts are exhausted. The engine treats `XQRG0005` as a signal
//! to retry the query once with spilling disabled, so a broken disk
//! degrades to the strict in-memory budget instead of failing the query
//! outright.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::time::Instant;

use xqr_core::algebra::{Field, OrderSpecPlan, Plan};
use xqr_xml::failpoint;
use xqr_xml::limits::ERR_SPILL_IO;
use xqr_xml::{
    AtomicValue, ByteCharge, Date, DateTime, Decimal, Document, Governor, Item, NodeHandle, NodeId,
    QName, Sequence, Time, XmlError,
};

use crate::compare::order_key_compare;
use crate::context::Ctx;
use crate::eval::eval_dep_items;
use crate::joins::{
    all_matches, for_each_key, keep_holding, materialize, KeyPart, KeyTypes, Side, SplitPredicate,
};
use crate::profile::OpStats;
use crate::value::{InputVal, NullFlag, Table, Tuple};

/// Hash-partition fan-out per level (join build side, group-by keys).
pub const FANOUT: usize = 8;
/// Maximum recursive repartition depth for skewed join keys; a partition
/// that is still over budget at this depth is processed in memory (the
/// byte budget is advisory in spill mode).
pub const MAX_DEPTH: usize = 4;
/// Sorted runs merged per pass in the external sort.
pub const MERGE_FANIN: usize = 8;

/// In-memory working-set budget for one partition or sort run: a quarter
/// of the byte budget (at least 64 KiB), or 1 MiB when no byte budget is
/// configured (forced spill mode).
fn working_budget(gov: &Governor) -> u64 {
    match gov.max_bytes() {
        Some(b) => (b / 4).max(64 * 1024),
        None => 1 << 20,
    }
}

/// Retries a spill I/O operation through the shared transient-retry
/// policy (`xqr_xml::retry`): 3 attempts, capped jittered backoff with
/// governor-deadline-aware sleeps, a failpoint evaluation per attempt (an
/// injected `XQRFP01` counts as a transient failure and consumes an
/// attempt). Retries are counted into the process metrics; exhaustion
/// surfaces as `XQRG0005`. The closure receives the attempt index so it
/// can rewind to a known offset after a partial write.
pub(crate) fn retry_io<T>(
    site: &str,
    gov: &Governor,
    f: impl FnMut(u32) -> std::io::Result<T>,
) -> xqr_xml::Result<T> {
    xqr_xml::retry::retry_transient(site, gov, &xqr_xml::RetryPolicy::default(), f).map_err(|e| {
        e.into_xml_error(|attempts, last| {
            XmlError::new(
                ERR_SPILL_IO,
                format!("spill I/O failed after {attempts} attempts at {site}: {last}"),
            )
        })
    })
}

// ===== Spill directory and files ===========================================

/// Per-query scoped spill directory. Created lazily on first spill (see
/// `Ctx::spill_manager`); removed recursively on drop, which the engine
/// reaches on success, error, cancellation, and unwinding alike.
pub struct SpillManager {
    dir: PathBuf,
    seq: Cell<u64>,
}

impl SpillManager {
    pub(crate) fn create(gov: &Governor) -> xqr_xml::Result<Rc<SpillManager>> {
        static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
        let parent = gov
            .spill_dir()
            .cloned()
            .or_else(|| std::env::var_os("XQR_SPILL_DIR").map(PathBuf::from))
            .unwrap_or_else(std::env::temp_dir);
        let n = DIR_SEQ.fetch_add(1, AtomicOrdering::Relaxed);
        let dir = parent.join(format!("xqr-spill-{}-{n}", std::process::id()));
        retry_io("spill::open", gov, |_| std::fs::create_dir_all(&dir))?;
        Ok(Rc::new(SpillManager {
            dir,
            seq: Cell::new(0),
        }))
    }

    /// The scoped directory (tests assert it disappears).
    pub fn dir(&self) -> &PathBuf {
        &self.dir
    }

    pub(crate) fn new_file(self: &Rc<Self>, gov: &Governor) -> xqr_xml::Result<SpillFile> {
        let n = self.seq.get();
        self.seq.set(n + 1);
        let path = self.dir.join(format!("part-{n}.spill"));
        let f = retry_io("spill::open", gov, |_| File::create(&path))?;
        Ok(SpillFile {
            _mgr: self.clone(),
            gov: gov.clone(),
            path,
            writer: Some(BufWriter::new(f)),
            reader: None,
            disk_bytes: 0,
            read_pos: 0,
            frames: 0,
            pins: Pins::default(),
        })
    }
}

impl Drop for SpillManager {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Documents referenced by spilled nodes, pinned for the file's lifetime
/// so a decoded `NodeHandle` points into the same arena.
#[derive(Default)]
struct Pins {
    docs: Vec<Rc<Document>>,
    slots: HashMap<usize, u32>,
}

impl Pins {
    fn slot(&mut self, doc: &Rc<Document>) -> u32 {
        let key = Rc::as_ptr(doc) as usize;
        *self.slots.entry(key).or_insert_with(|| {
            self.docs.push(doc.clone());
            (self.docs.len() - 1) as u32
        })
    }

    fn doc(&self, slot: u32) -> xqr_xml::Result<&Rc<Document>> {
        self.docs
            .get(slot as usize)
            .ok_or_else(|| corrupt("unknown document slot"))
    }
}

fn corrupt(what: &str) -> XmlError {
    XmlError::new(ERR_SPILL_IO, format!("corrupt spill frame: {what}"))
}

/// One temp-file-backed sequence of frames: `[len:u32][crc32:u32][payload]`,
/// written sequentially through a buffer, then re-opened for sequential
/// reads. Deletes its file and releases its disk-budget charge on drop.
pub(crate) struct SpillFile {
    _mgr: Rc<SpillManager>,
    gov: Governor,
    path: PathBuf,
    writer: Option<BufWriter<File>>,
    reader: Option<BufReader<File>>,
    /// Header + payload bytes written == the disk budget charged.
    disk_bytes: u64,
    read_pos: u64,
    frames: u64,
    pins: Pins,
}

impl SpillFile {
    /// Total bytes written (partition-size check for recursive repartition).
    fn bytes(&self) -> u64 {
        self.disk_bytes
    }

    fn frames(&self) -> u64 {
        self.frames
    }

    fn write_frame(&mut self, payload: &[u8]) -> xqr_xml::Result<()> {
        let frame_len = payload.len() as u64 + 8;
        // Charge the disk budget before touching the disk; the charge is
        // released wholesale when the file drops.
        self.gov.charge_spill_bytes(frame_len)?;
        let start = self.disk_bytes;
        self.disk_bytes += frame_len;
        let mut head = [0u8; 8];
        head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        let writer = self.writer.as_mut().expect("write after start_read");
        retry_io("spill::write", &self.gov, |attempt| {
            if attempt > 0 {
                // A failed attempt may have written part of the frame;
                // rewind to the frame start so the retry is idempotent.
                writer.seek(SeekFrom::Start(start))?;
            }
            writer.write_all(&head)?;
            writer.write_all(payload)
        })?;
        self.frames += 1;
        Ok(())
    }

    /// Flushes pending writes and switches the file into read mode.
    fn start_read(&mut self) -> xqr_xml::Result<()> {
        if let Some(mut w) = self.writer.take() {
            retry_io("spill::write", &self.gov, |_| w.flush())?;
        }
        let f = retry_io("spill::open", &self.gov, |_| File::open(&self.path))?;
        self.reader = Some(BufReader::new(f));
        self.read_pos = 0;
        Ok(())
    }

    /// The next frame's payload, or `None` at end of file. The CRC is
    /// verified after a successful read; a mismatch is not retried (the
    /// bytes on disk are wrong, not the transfer).
    fn read_frame(&mut self) -> xqr_xml::Result<Option<Vec<u8>>> {
        let start = self.read_pos;
        let reader = self.reader.as_mut().expect("read before start_read");
        let frame = retry_io("spill::read", &self.gov, |attempt| {
            if attempt > 0 {
                reader.seek(SeekFrom::Start(start))?;
            }
            let mut head = [0u8; 8];
            match reader.read_exact(&mut head) {
                Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(None),
                r => r?,
            }
            let len = u32::from_le_bytes(head[..4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(head[4..].try_into().unwrap());
            let mut payload = vec![0u8; len];
            reader.read_exact(&mut payload)?;
            Ok(Some((crc, payload)))
        })?;
        let Some((crc, payload)) = frame else {
            return Ok(None);
        };
        if crc32(&payload) != crc {
            return Err(corrupt("checksum mismatch"));
        }
        self.read_pos += payload.len() as u64 + 8;
        Ok(Some(payload))
    }

    // -- typed frames ------------------------------------------------------

    /// Join build-side frame: `(global tuple index, tuple)`.
    fn write_join_frame(
        &mut self,
        buf: &mut Vec<u8>,
        idx: u64,
        tup: &Tuple,
    ) -> xqr_xml::Result<()> {
        buf.clear();
        enc_u64(buf, idx);
        enc_tuple(buf, &mut self.pins, tup);
        self.write_frame(buf)
    }

    fn read_join_frame(&mut self) -> xqr_xml::Result<Option<(u64, Tuple)>> {
        let Some(payload) = self.read_frame()? else {
            return Ok(None);
        };
        let mut d = Dec::new(&payload);
        let idx = d.u64()?;
        let tup = dec_tuple(&mut d, &self.pins)?;
        Ok(Some((idx, tup)))
    }

    /// Group-by frame: `(key vector, representative tuple, items)`.
    fn write_group_frame(
        &mut self,
        buf: &mut Vec<u8>,
        key: &[i64],
        rep: &Tuple,
        items: &[Item],
    ) -> xqr_xml::Result<()> {
        buf.clear();
        enc_u32(buf, key.len() as u32);
        for k in key {
            enc_i64(buf, *k);
        }
        enc_tuple(buf, &mut self.pins, rep);
        enc_u32(buf, items.len() as u32);
        for it in items {
            enc_item(buf, &mut self.pins, it);
        }
        self.write_frame(buf)
    }

    #[allow(clippy::type_complexity)]
    fn read_group_frame(&mut self) -> xqr_xml::Result<Option<(Vec<i64>, Tuple, Vec<Item>)>> {
        let Some(payload) = self.read_frame()? else {
            return Ok(None);
        };
        let mut d = Dec::new(&payload);
        let klen = d.u32()? as usize;
        let mut key = Vec::with_capacity(klen);
        for _ in 0..klen {
            key.push(d.i64()?);
        }
        let rep = dec_tuple(&mut d, &self.pins)?;
        let ilen = d.u32()? as usize;
        let mut items = Vec::with_capacity(ilen);
        for _ in 0..ilen {
            items.push(dec_item(&mut d, &self.pins)?);
        }
        Ok(Some((key, rep, items)))
    }

    /// Sort-run frame: `(order keys, tuple)`.
    fn write_sort_frame(
        &mut self,
        buf: &mut Vec<u8>,
        keys: &[Sequence],
        tup: &Tuple,
    ) -> xqr_xml::Result<()> {
        buf.clear();
        enc_u32(buf, keys.len() as u32);
        for k in keys {
            enc_seq(buf, &mut self.pins, k);
        }
        enc_tuple(buf, &mut self.pins, tup);
        self.write_frame(buf)
    }

    fn read_sort_frame(&mut self) -> xqr_xml::Result<Option<(Vec<Sequence>, Tuple)>> {
        let Some(payload) = self.read_frame()? else {
            return Ok(None);
        };
        let mut d = Dec::new(&payload);
        let klen = d.u32()? as usize;
        let mut keys = Vec::with_capacity(klen);
        for _ in 0..klen {
            keys.push(dec_seq(&mut d, &self.pins)?);
        }
        let tup = dec_tuple(&mut d, &self.pins)?;
        Ok(Some((keys, tup)))
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        self.writer.take();
        self.reader.take();
        let _ = std::fs::remove_file(&self.path);
        self.gov.release_spill_bytes(self.disk_bytes);
    }
}

// ===== Frame codec =========================================================
//
// Length-prefixed little-endian binary. The encoding is exact (no float
// formatting, decimals as i128 fixed-point units), so a decoded value is
// `==` to the original — the differential suite relies on spilled and
// in-memory plans producing byte-identical serialized results.

fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        let mut i = 0usize;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    });
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

fn enc_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn enc_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn enc_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn enc_i32(buf: &mut Vec<u8>, v: i32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn enc_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn enc_i128(buf: &mut Vec<u8>, v: i128) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn enc_str(buf: &mut Vec<u8>, s: &str) {
    enc_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn enc_opt_str(buf: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => enc_u8(buf, 0),
        Some(s) => {
            enc_u8(buf, 1);
            enc_str(buf, s);
        }
    }
}

fn enc_opt_i32(buf: &mut Vec<u8>, v: Option<i32>) {
    match v {
        None => enc_u8(buf, 0),
        Some(v) => {
            enc_u8(buf, 1);
            enc_i32(buf, v);
        }
    }
}

fn enc_date(buf: &mut Vec<u8>, d: &Date) {
    enc_i32(buf, d.year);
    enc_u8(buf, d.month);
    enc_u8(buf, d.day);
    enc_opt_i32(buf, d.tz_minutes);
}

fn enc_atomic(buf: &mut Vec<u8>, v: &AtomicValue) {
    use AtomicValue as V;
    match v {
        V::String(s) => {
            enc_u8(buf, 0);
            enc_str(buf, s);
        }
        V::Boolean(b) => {
            enc_u8(buf, 1);
            enc_u8(buf, *b as u8);
        }
        V::Decimal(d) => {
            enc_u8(buf, 2);
            enc_i128(buf, d.units());
        }
        V::Integer(i) => {
            enc_u8(buf, 3);
            enc_i64(buf, *i);
        }
        V::Double(d) => {
            enc_u8(buf, 4);
            enc_u64(buf, d.to_bits());
        }
        V::Float(f) => {
            enc_u8(buf, 5);
            enc_u32(buf, f.to_bits());
        }
        V::UntypedAtomic(s) => {
            enc_u8(buf, 6);
            enc_str(buf, s);
        }
        V::AnyUri(s) => {
            enc_u8(buf, 7);
            enc_str(buf, s);
        }
        V::QName(q) => {
            enc_u8(buf, 8);
            enc_opt_str(buf, q.prefix());
            enc_opt_str(buf, q.uri());
            enc_str(buf, q.local_part());
        }
        V::Date(d) => {
            enc_u8(buf, 9);
            enc_date(buf, d);
        }
        V::Time(t) => {
            enc_u8(buf, 10);
            enc_u32(buf, t.millis);
            enc_opt_i32(buf, t.tz_minutes);
        }
        V::DateTime(dt) => {
            enc_u8(buf, 11);
            enc_date(buf, &dt.date);
            enc_u32(buf, dt.millis);
        }
        V::Duration(d) => {
            enc_u8(buf, 12);
            enc_i64(buf, d.months);
            enc_i64(buf, d.millis);
        }
        V::GYear(y) => {
            enc_u8(buf, 13);
            enc_i32(buf, *y);
        }
        V::GYearMonth(y, m) => {
            enc_u8(buf, 14);
            enc_i32(buf, *y);
            enc_u8(buf, *m);
        }
        V::GMonth(m) => {
            enc_u8(buf, 15);
            enc_u8(buf, *m);
        }
        V::GMonthDay(m, d) => {
            enc_u8(buf, 16);
            enc_u8(buf, *m);
            enc_u8(buf, *d);
        }
        V::GDay(d) => {
            enc_u8(buf, 17);
            enc_u8(buf, *d);
        }
        V::HexBinary(b) => {
            enc_u8(buf, 18);
            enc_u32(buf, b.len() as u32);
            buf.extend_from_slice(b);
        }
        V::Base64Binary(b) => {
            enc_u8(buf, 19);
            enc_u32(buf, b.len() as u32);
            buf.extend_from_slice(b);
        }
    }
}

fn enc_item(buf: &mut Vec<u8>, pins: &mut Pins, item: &Item) {
    match item {
        Item::Atomic(v) => {
            enc_u8(buf, 0);
            enc_atomic(buf, v);
        }
        Item::Node(h) => {
            enc_u8(buf, 1);
            enc_u32(buf, pins.slot(&h.doc));
            enc_u32(buf, h.id.0);
        }
    }
}

fn enc_seq(buf: &mut Vec<u8>, pins: &mut Pins, s: &Sequence) {
    enc_u32(buf, s.len() as u32);
    for it in s.iter() {
        enc_item(buf, pins, it);
    }
}

fn enc_tuple(buf: &mut Vec<u8>, pins: &mut Pins, t: &Tuple) {
    enc_u32(buf, t.len() as u32);
    for (f, s) in t.fields() {
        enc_str(buf, f);
        enc_seq(buf, pins, s);
    }
}

/// Bounds-checked decode cursor over one frame payload.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> xqr_xml::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(corrupt("truncated payload"));
        };
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> xqr_xml::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> xqr_xml::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> xqr_xml::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i32(&mut self) -> xqr_xml::Result<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> xqr_xml::Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i128(&mut self) -> xqr_xml::Result<i128> {
        Ok(i128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    fn str(&mut self) -> xqr_xml::Result<String> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?)
            .map(str::to_string)
            .map_err(|_| corrupt("invalid utf-8"))
    }

    fn opt_str(&mut self) -> xqr_xml::Result<Option<String>> {
        Ok(match self.u8()? {
            0 => None,
            _ => Some(self.str()?),
        })
    }

    fn opt_i32(&mut self) -> xqr_xml::Result<Option<i32>> {
        Ok(match self.u8()? {
            0 => None,
            _ => Some(self.i32()?),
        })
    }

    fn date(&mut self) -> xqr_xml::Result<Date> {
        Ok(Date {
            year: self.i32()?,
            month: self.u8()?,
            day: self.u8()?,
            tz_minutes: self.opt_i32()?,
        })
    }
}

fn dec_atomic(d: &mut Dec<'_>) -> xqr_xml::Result<AtomicValue> {
    use AtomicValue as V;
    Ok(match d.u8()? {
        0 => V::String(d.str()?.into()),
        1 => V::Boolean(d.u8()? != 0),
        2 => V::Decimal(Decimal::from_units(d.i128()?)),
        3 => V::Integer(d.i64()?),
        4 => V::Double(f64::from_bits(d.u64()?)),
        5 => V::Float(f32::from_bits(d.u32()?)),
        6 => V::UntypedAtomic(d.str()?.into()),
        7 => V::AnyUri(d.str()?.into()),
        8 => {
            let prefix = d.opt_str()?;
            let uri = d.opt_str()?;
            let local = d.str()?;
            V::QName(QName::full(prefix.as_deref(), uri.as_deref(), &local))
        }
        9 => V::Date(d.date()?),
        10 => V::Time(Time {
            millis: d.u32()?,
            tz_minutes: d.opt_i32()?,
        }),
        11 => V::DateTime(DateTime {
            date: d.date()?,
            millis: d.u32()?,
        }),
        12 => V::Duration(xqr_xml::Duration {
            months: d.i64()?,
            millis: d.i64()?,
        }),
        13 => V::GYear(d.i32()?),
        14 => V::GYearMonth(d.i32()?, d.u8()?),
        15 => V::GMonth(d.u8()?),
        16 => V::GMonthDay(d.u8()?, d.u8()?),
        17 => V::GDay(d.u8()?),
        18 => {
            let n = d.u32()? as usize;
            V::HexBinary(d.take(n)?.to_vec().into())
        }
        19 => {
            let n = d.u32()? as usize;
            V::Base64Binary(d.take(n)?.to_vec().into())
        }
        _ => return Err(corrupt("unknown atomic tag")),
    })
}

fn dec_item(d: &mut Dec<'_>, pins: &Pins) -> xqr_xml::Result<Item> {
    Ok(match d.u8()? {
        0 => Item::Atomic(dec_atomic(d)?),
        1 => {
            let slot = d.u32()?;
            let id = d.u32()?;
            Item::Node(NodeHandle {
                doc: pins.doc(slot)?.clone(),
                id: NodeId(id),
            })
        }
        _ => return Err(corrupt("unknown item tag")),
    })
}

fn dec_seq(d: &mut Dec<'_>, pins: &Pins) -> xqr_xml::Result<Sequence> {
    let n = d.u32()? as usize;
    let mut items = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        items.push(dec_item(d, pins)?);
    }
    Ok(Sequence::from_vec(items))
}

fn dec_tuple(d: &mut Dec<'_>, pins: &Pins) -> xqr_xml::Result<Tuple> {
    let n = d.u32()? as usize;
    let mut fields = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let name = d.str()?;
        let seq = dec_seq(d, pins)?;
        fields.push((Field::from(name.as_str()), seq));
    }
    Ok(Tuple::from_fields(fields))
}

// ===== Grace-style partitioned hash join ===================================

/// Per-operator spill observability, flushed into `OpStats` at the end.
#[derive(Default)]
struct Tally {
    bytes: u64,
    partitions: u64,
    merge_passes: u64,
}

impl Tally {
    fn flush(&self, stats: Option<&OpStats>) {
        if let Some(s) = stats {
            s.add_spilled_bytes(self.bytes);
            s.add_spill_partitions(self.partitions);
            s.add_spill_merge_passes(self.merge_passes);
        }
    }
}

/// The hash partition of a composite key at a recursion depth (the depth
/// salts the hash so a repartition actually redistributes).
fn key_partition(key: &[KeyPart], depth: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (depth as u64).hash(&mut h);
    key.hash(&mut h);
    (h.finish() % FANOUT as u64) as usize
}

/// Does this key's partition path match the ancestor partitions? A tuple
/// file at path `[p0, p1]` holds tuples that had at least one key hashing
/// to `p0` at depth 0 and `p1` at depth 1; only such keys are indexed or
/// scattered there — the key's matches live in that key's own subtree.
fn on_path(key: &[KeyPart], path: &[usize]) -> bool {
    path.iter()
        .enumerate()
        .all(|(d, &p)| key_partition(key, d) == p)
}

/// Out-of-core `Join`/`LOuterJoin` with the exact output order and
/// composite `(value, type)` key semantics of the in-memory join cursor
/// over an indexed probe. The caller has already split the predicate;
/// predicates with no separable equality stay on the in-memory nested
/// loop (there is no key to partition on).
pub(crate) fn grace_join(
    split: &SplitPredicate<'_>,
    left: &Table,
    right: &Table,
    flag: Option<&NullFlag>,
    ctx: &mut Ctx<'_>,
    stats: Option<&OpStats>,
) -> xqr_xml::Result<Table> {
    let t0 = stats.map(|_| Instant::now());
    let mut grace = Grace {
        split,
        left,
        flag,
        mgr: ctx.spill_manager()?,
        types: KeyTypes::default(),
        pairs: Vec::new(),
        tally: Tally::default(),
    };

    // Scatter the build side into depth-0 partitions.
    let mut files: Vec<Option<SpillFile>> = (0..FANOUT).map(|_| None).collect();
    let mut buf = Vec::new();
    for (idx, tup) in right.iter().enumerate() {
        grace.scatter(&mut files, idx as u64, tup, &[], ctx, &mut buf)?;
    }
    if let (Some(s), Some(t0)) = (stats, t0) {
        s.add_build_nanos(t0.elapsed().as_nanos() as u64);
    }

    // Assign outer tuples to the partitions their keys probe, and probe
    // partition-at-a-time, recursing on oversized partitions.
    let all_outers: Vec<u64> = (0..left.len() as u64).collect();
    let outer_lists = grace.assign(&all_outers, &[], ctx)?;
    for (p, file) in files.iter_mut().enumerate() {
        let Some(file) = file.take() else { continue };
        grace.partition(file, &outer_lists[p], vec![p], ctx)?;
    }

    // Merge the per-partition matches back into the global order: outer
    // order first, then inner order per outer — and drop the duplicates a
    // multi-key tuple produces across partitions (the in-memory
    // `allMatches` dedups per probe; here the probes were split). The
    // matched tuples already carry their flag.
    let Grace {
        mut pairs, tally, ..
    } = grace;
    pairs.sort_by_key(|a| (a.0, a.1));
    pairs.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
    let mut out = Table::with_capacity(pairs.len());
    let mut pairs = pairs.into_iter().peekable();
    for o in 0..left.len() as u64 {
        let before = out.len();
        while let Some((_, _, t)) = pairs.next_if(|p| p.0 == o) {
            out.push(t);
        }
        if let (true, Some(f)) = (out.len() == before, flag) {
            out.push(f.unmatched(&left[o as usize]));
        }
    }
    tally.flush(stats);
    Ok(out)
}

/// One Grace join in progress.
struct Grace<'a, 'p> {
    split: &'a SplitPredicate<'p>,
    left: &'a Table,
    flag: Option<&'a NullFlag>,
    mgr: Rc<SpillManager>,
    /// The build side's value types, recorded while it is scattered; the
    /// outer tuples are assigned under them.
    types: KeyTypes,
    /// `(outer index, inner index, joined tuple)` per match.
    pairs: Vec<(u64, u64, Tuple)>,
    tally: Tally,
}

/// The partitions at depth `path.len()` that one tuple's on-path
/// composite keys hash to — the in-memory join's own keys
/// ([`for_each_key`]), so both paths agree on what matches. An outer tuple
/// that cannot probe meets every partition.
fn partitions(
    split: &SplitPredicate<'_>,
    side: Side<'_>,
    tup: &Tuple,
    path: &[usize],
    ctx: &mut Ctx<'_>,
) -> xqr_xml::Result<[bool; FANOUT]> {
    let mut targets = [false; FANOUT];
    let keyed = for_each_key(split, side, tup, ctx, |key, _| {
        if on_path(key, path) {
            targets[key_partition(key, path.len())] = true;
        }
        Ok(())
    })?;
    Ok(if keyed { targets } else { [true; FANOUT] })
}

impl Grace<'_, '_> {
    /// Scatters one build-side tuple into the partition files its on-path
    /// keys hash to (one frame per distinct target).
    fn scatter(
        &mut self,
        files: &mut [Option<SpillFile>],
        idx: u64,
        tup: &Tuple,
        path: &[usize],
        ctx: &mut Ctx<'_>,
        buf: &mut Vec<u8>,
    ) -> xqr_xml::Result<()> {
        ctx.governor.tick()?;
        let targets = partitions(self.split, Side::Inner(&mut self.types), tup, path, ctx)?;
        for (p, _) in targets.iter().enumerate().filter(|(_, hit)| **hit) {
            if files[p].is_none() {
                files[p] = Some(self.mgr.new_file(&ctx.governor)?);
            }
            files[p].as_mut().unwrap().write_join_frame(buf, idx, tup)?;
        }
        Ok(())
    }

    /// Assigns outer tuple indices to the partitions their on-path keys
    /// hash to at depth `path.len()` (an outer tuple probes every
    /// partition one of its keys belongs to).
    fn assign(
        &self,
        outers: &[u64],
        path: &[usize],
        ctx: &mut Ctx<'_>,
    ) -> xqr_xml::Result<Vec<Vec<u64>>> {
        let mut lists: Vec<Vec<u64>> = (0..FANOUT).map(|_| Vec::new()).collect();
        for &o in outers {
            ctx.governor.tick()?;
            let tup = &self.left[o as usize];
            let targets = partitions(self.split, Side::Outer(&self.types), tup, path, ctx)?;
            for (p, _) in targets.iter().enumerate().filter(|(_, hit)| **hit) {
                lists[p].push(o);
            }
        }
        Ok(lists)
    }

    /// Loads one build-side partition, indexes it, and probes its outer
    /// tuples — or, when the partition exceeds the working budget and the
    /// depth cap allows, streams it into depth-salted sub-partitions and
    /// recurses without ever holding it in memory.
    fn partition(
        &mut self,
        mut file: SpillFile,
        outers: &[u64],
        path: Vec<usize>,
        ctx: &mut Ctx<'_>,
    ) -> xqr_xml::Result<()> {
        self.tally.bytes += file.bytes();
        self.tally.partitions += 1;
        // `frames > 1`: a single oversized tuple can't shrink by repartition.
        if file.bytes() > working_budget(&ctx.governor)
            && path.len() < MAX_DEPTH
            && file.frames() > 1
        {
            file.start_read()?;
            let mut sub: Vec<Option<SpillFile>> = (0..FANOUT).map(|_| None).collect();
            let mut buf = Vec::new();
            while let Some((idx, tup)) = file.read_join_frame()? {
                self.scatter(&mut sub, idx, &tup, &path, ctx, &mut buf)?;
            }
            drop(file); // delete the parent partition before descending
            let outer_sub = self.assign(outers, &path, ctx)?;
            for (p, f) in sub.iter_mut().enumerate() {
                let Some(f) = f.take() else { continue };
                let mut sub_path = path.clone();
                sub_path.push(p);
                self.partition(f, &outer_sub[p], sub_path, ctx)?;
            }
            return Ok(());
        }

        // Load + index this partition with the in-memory join's own
        // `materialize`; the charge drops with the partition.
        file.start_read()?;
        let (mut ids, mut rows) = (Vec::new(), Table::new());
        while let Some((idx, tup)) = file.read_join_frame()? {
            ids.push(idx);
            rows.push(tup);
        }
        drop(file);
        let mut charge = ByteCharge::new(&ctx.governor);
        let index = materialize(&rows, self.split, ctx, &mut charge, |k| on_path(k, &path))?;
        for &o in outers {
            ctx.governor.tick()?;
            let lt = &self.left[o as usize];
            let ms = all_matches(&index, lt, self.split, ctx)?;
            let candidates = ms.as_ref().map_or(rows.len(), Vec::len);
            ctx.governor.charge_tuples(candidates as u64)?;
            let pairs = &mut self.pairs;
            keep_holding(self.split, lt, &rows, ms, self.flag, ctx, |i, t| {
                pairs.push((o, ids[i], t))
            })?;
        }
        Ok(())
    }
}

// ===== Partitioned group-by ================================================

/// The spilling half of `GroupBy`: `(key, representative, items)` frames
/// routed to partition files by key hash. Per-item evaluation happens
/// *before* a frame is written (so the dependent plan always sees live
/// tuples), and the per-partition aggregate runs at [`GroupSpill::finish`]
/// over each merged partition. The streaming group-by migrates into this
/// when the governor flips mid-stream — closed partitions are re-fed
/// through [`GroupSpill::add`].
pub(crate) struct GroupSpill {
    mgr: Rc<SpillManager>,
    gov: Governor,
    files: Vec<Option<SpillFile>>,
    buf: Vec<u8>,
}

impl GroupSpill {
    pub(crate) fn new(ctx: &mut Ctx<'_>) -> xqr_xml::Result<GroupSpill> {
        Ok(GroupSpill {
            mgr: ctx.spill_manager()?,
            gov: ctx.governor.clone(),
            files: (0..FANOUT).map(|_| None).collect(),
            buf: Vec::new(),
        })
    }

    fn key_hash(key: &[i64]) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % FANOUT as u64) as usize
    }

    /// Spills one (possibly partial) partition's contribution. Equal keys
    /// always land in the same file, in arrival order.
    pub(crate) fn add(&mut self, key: &[i64], rep: &Tuple, items: &[Item]) -> xqr_xml::Result<()> {
        if let Err(e) = failpoint::check("groupby::flush") {
            // An injected flush failure is a spill I/O failure: it must
            // take the XQRG0005 path so the engine's retry-without-spill
            // can engage.
            if e.code == failpoint::ERR_INJECTED {
                return Err(XmlError::new(ERR_SPILL_IO, e.message));
            }
            return Err(e);
        }
        let p = Self::key_hash(key);
        if self.files[p].is_none() {
            self.files[p] = Some(self.mgr.new_file(&self.gov)?);
        }
        self.files[p]
            .as_mut()
            .unwrap()
            .write_group_frame(&mut self.buf, key, rep, items)
    }

    /// Merges every partition and applies the per-partition aggregate;
    /// output partitions are globally key-sorted, matching the in-memory
    /// group-by exactly.
    pub(crate) fn finish(
        mut self,
        agg: &Field,
        per_partition: &Plan,
        ctx: &mut Ctx<'_>,
        stats: Option<&OpStats>,
    ) -> xqr_xml::Result<Table> {
        let mut tally = Tally::default();
        let mut results: Vec<(Vec<i64>, Tuple)> = Vec::new();
        for slot in self.files.iter_mut() {
            let Some(mut file) = slot.take() else {
                continue;
            };
            tally.bytes += file.bytes();
            tally.partitions += 1;
            file.start_read()?;
            let mut charge = ByteCharge::new(&ctx.governor);
            let mut parts: Vec<(Vec<i64>, Tuple, Vec<Item>)> = Vec::new();
            let mut by_key: HashMap<Vec<i64>, usize> = HashMap::new();
            while let Some((key, rep, items)) = file.read_group_frame()? {
                ctx.governor.tick()?;
                charge.add(rep.approx_bytes() + 24 * items.len() as u64)?;
                match by_key.get(&key) {
                    Some(&i) => parts[i].2.extend(items),
                    None => {
                        by_key.insert(key.clone(), parts.len());
                        parts.push((key, rep, items));
                    }
                }
            }
            drop(file);
            for (key, rep, items) in parts {
                let agg_value = eval_dep_items(
                    per_partition,
                    ctx,
                    &InputVal::Items(Sequence::from_vec(items)),
                )?;
                results.push((key, rep.with(agg.clone(), agg_value)));
            }
        }
        // Equal keys can never straddle partition files, so this sort
        // both orders the output and implies partition uniqueness.
        results.sort_by(|a, b| a.0.cmp(&b.0));
        if let Some(s) = stats {
            s.add_partitions(results.len() as u64);
        }
        tally.flush(stats);
        Ok(results.into_iter().map(|(_, t)| t).collect())
    }
}

// ===== External merge sort =================================================

fn compare_keys(
    specs: &[OrderSpecPlan],
    a: &[Sequence],
    b: &[Sequence],
) -> xqr_xml::Result<Ordering> {
    for (i, s) in specs.iter().enumerate() {
        let mut ord = order_key_compare(&a[i], &b[i], s.empty_least)?;
        if s.descending {
            ord = ord.reverse();
        }
        if ord != Ordering::Equal {
            return Ok(ord);
        }
    }
    Ok(Ordering::Equal)
}

/// Stable in-memory sort of one run, with the first comparator error
/// captured and re-raised (mirroring `eval::order_by`).
fn sort_run(specs: &[OrderSpecPlan], run: &mut [(Vec<Sequence>, Tuple)]) -> xqr_xml::Result<()> {
    let mut err: Option<XmlError> = None;
    run.sort_by(|a, b| match compare_keys(specs, &a.0, &b.0) {
        Ok(o) => o,
        Err(e) => {
            if err.is_none() {
                err = Some(e);
            }
            Ordering::Equal
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn flush_run(
    mgr: &Rc<SpillManager>,
    specs: &[OrderSpecPlan],
    run: &mut Vec<(Vec<Sequence>, Tuple)>,
    ctx: &Ctx<'_>,
) -> xqr_xml::Result<SpillFile> {
    sort_run(specs, run)?;
    let mut file = mgr.new_file(&ctx.governor)?;
    let mut buf = Vec::new();
    for (keys, tup) in run.drain(..) {
        file.write_sort_frame(&mut buf, &keys, &tup)?;
    }
    Ok(file)
}

/// One open run in a k-way merge.
struct RunHead {
    file: SpillFile,
    head: Option<(Vec<Sequence>, Tuple)>,
}

impl RunHead {
    fn open(mut file: SpillFile) -> xqr_xml::Result<RunHead> {
        file.start_read()?;
        let head = file.read_sort_frame()?;
        Ok(RunHead { file, head })
    }

    fn advance(&mut self) -> xqr_xml::Result<Option<(Vec<Sequence>, Tuple)>> {
        let next = self.file.read_sort_frame()?;
        Ok(std::mem::replace(&mut self.head, next))
    }
}

/// Pops the globally smallest head; ties resolve to the lowest run index,
/// which is the earlier input position — the stability tie-break.
fn merge_step(
    specs: &[OrderSpecPlan],
    runs: &mut [RunHead],
) -> xqr_xml::Result<Option<(Vec<Sequence>, Tuple)>> {
    let mut best: Option<usize> = None;
    for (i, r) in runs.iter().enumerate() {
        let Some(h) = &r.head else { continue };
        match best {
            None => best = Some(i),
            Some(b) => {
                let bh = runs[b].head.as_ref().unwrap();
                if compare_keys(specs, &h.0, &bh.0)? == Ordering::Less {
                    best = Some(i);
                }
            }
        }
    }
    match best {
        Some(i) => runs[i].advance(),
        None => Ok(None),
    }
}

/// Out-of-core `OrderBy`: identical output to `eval::order_by` (stable,
/// same key coercions) with peak memory bounded by one run plus the merge
/// heads. Key evaluation order, and therefore key-error behaviour, matches
/// the in-memory pass (keys are computed per input tuple, in input order).
pub(crate) fn external_sort(
    specs: &[OrderSpecPlan],
    table: Table,
    ctx: &mut Ctx<'_>,
    stats: Option<&OpStats>,
) -> xqr_xml::Result<Table> {
    let budget = working_budget(&ctx.governor);
    let mut tally = Tally::default();
    let mut mgr: Option<Rc<SpillManager>> = None;
    let mut runs: Vec<SpillFile> = Vec::new();
    let mut cur: Vec<(Vec<Sequence>, Tuple)> = Vec::new();
    let mut cur_bytes = 0u64;
    for t in table {
        ctx.governor.tick()?;
        let mut keys = Vec::with_capacity(specs.len());
        for s in specs {
            keys.push(eval_dep_items(&s.key, ctx, &InputVal::Tuple(t.clone()))?);
        }
        cur_bytes += t.approx_bytes() + keys.iter().map(|k| 16 + 24 * k.len() as u64).sum::<u64>();
        cur.push((keys, t));
        if cur_bytes > budget {
            let m = match &mgr {
                Some(m) => m.clone(),
                None => {
                    let m = ctx.spill_manager()?;
                    mgr = Some(m.clone());
                    m
                }
            };
            runs.push(flush_run(&m, specs, &mut cur, ctx)?);
            cur_bytes = 0;
        }
    }
    if runs.is_empty() {
        // Everything fit in one run: plain in-memory sort, no disk.
        sort_run(specs, &mut cur)?;
        return Ok(cur.into_iter().map(|(_, t)| t).collect());
    }
    if !cur.is_empty() {
        runs.push(flush_run(mgr.as_ref().unwrap(), specs, &mut cur, ctx)?);
    }
    for r in &runs {
        tally.bytes += r.bytes();
    }
    tally.partitions += runs.len() as u64;

    // Multi-pass merge under the fan-in cap.
    while runs.len() > MERGE_FANIN {
        let batch: Vec<SpillFile> = runs.drain(..MERGE_FANIN).collect();
        let mut heads = batch
            .into_iter()
            .map(RunHead::open)
            .collect::<xqr_xml::Result<Vec<_>>>()?;
        let mut out = mgr.as_ref().unwrap().new_file(&ctx.governor)?;
        let mut buf = Vec::new();
        while let Some((keys, tup)) = merge_step(specs, &mut heads)? {
            ctx.governor.tick()?;
            out.write_sort_frame(&mut buf, &keys, &tup)?;
        }
        tally.bytes += out.bytes();
        tally.merge_passes += 1;
        runs.push(out);
    }

    // Final merge straight into the output table.
    let mut heads = runs
        .into_iter()
        .map(RunHead::open)
        .collect::<xqr_xml::Result<Vec<_>>>()?;
    let mut out = Table::new();
    while let Some((_, tup)) = merge_step(specs, &mut heads)? {
        ctx.governor.tick()?;
        out.push(tup);
    }
    tally.merge_passes += 1;
    tally.flush(stats);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqr_xml::{CancellationToken, Limits, ParseOptions};

    fn gov_with_spill(disk: u64) -> Governor {
        Governor::new(
            &Limits::default().with_spill(Some(disk)),
            CancellationToken::new(),
        )
    }

    fn sample_tuple() -> Tuple {
        let atomics = vec![
            AtomicValue::string("héllo"),
            AtomicValue::Boolean(true),
            AtomicValue::Decimal(Decimal::from_units(-123_456_789)),
            AtomicValue::Integer(-42),
            AtomicValue::Double(1.5e300),
            AtomicValue::Float(-0.25),
            AtomicValue::untyped("u"),
            AtomicValue::AnyUri("http://example.com/".into()),
            AtomicValue::QName(QName::full(Some("p"), Some("urn:x"), "local")),
            AtomicValue::Date(Date {
                year: 2001,
                month: 12,
                day: 31,
                tz_minutes: Some(-300),
            }),
            AtomicValue::Time(Time {
                millis: 86_399_000,
                tz_minutes: None,
            }),
            AtomicValue::DateTime(DateTime {
                date: Date {
                    year: -44,
                    month: 3,
                    day: 15,
                    tz_minutes: None,
                },
                millis: 12,
            }),
            AtomicValue::Duration(xqr_xml::Duration {
                months: -5,
                millis: 7,
            }),
            AtomicValue::GYear(1999),
            AtomicValue::GYearMonth(2020, 2),
            AtomicValue::GMonth(7),
            AtomicValue::GMonthDay(2, 29),
            AtomicValue::GDay(9),
            AtomicValue::HexBinary(vec![0xDE, 0xAD].into()),
            AtomicValue::Base64Binary(vec![1, 2, 3].into()),
        ];
        Tuple::from_fields(vec![
            (
                Field::from("a"),
                Sequence::from_vec(atomics.into_iter().map(Item::Atomic).collect()),
            ),
            (Field::from("empty"), Sequence::empty()),
        ])
    }

    fn tuples_equal(a: &Tuple, b: &Tuple) -> bool {
        let av: Vec<_> = a.fields().map(|(f, s)| (f.clone(), s.clone())).collect();
        let bv: Vec<_> = b.fields().map(|(f, s)| (f.clone(), s.clone())).collect();
        av == bv
    }

    #[test]
    fn codec_roundtrips_every_atomic_type() {
        let gov = gov_with_spill(1 << 20);
        let mgr = SpillManager::create(&gov).unwrap();
        let mut f = mgr.new_file(&gov).unwrap();
        let t = sample_tuple();
        let mut buf = Vec::new();
        f.write_join_frame(&mut buf, 7, &t).unwrap();
        f.start_read().unwrap();
        let (idx, back) = f.read_join_frame().unwrap().expect("one frame");
        assert_eq!(idx, 7);
        assert!(tuples_equal(&t, &back));
        assert!(f.read_join_frame().unwrap().is_none(), "eof after frame");
    }

    #[test]
    fn nodes_spill_by_reference_into_the_same_arena() {
        let gov = gov_with_spill(1 << 20);
        let mgr = SpillManager::create(&gov).unwrap();
        let mut f = mgr.new_file(&gov).unwrap();
        let doc = xqr_xml::parse_document("<r><a/><b/></r>", &ParseOptions::default()).unwrap();
        let node = Item::Node(NodeHandle {
            doc: doc.clone(),
            id: NodeId(2),
        });
        let t = Tuple::from_fields(vec![(
            Field::from("n"),
            Sequence::from_vec(vec![node.clone()]),
        )]);
        let mut buf = Vec::new();
        f.write_join_frame(&mut buf, 0, &t).unwrap();
        f.start_read().unwrap();
        let (_, back) = f.read_join_frame().unwrap().unwrap();
        let Some(Item::Node(h)) = back.get("n").get(0).cloned() else {
            panic!("expected node item");
        };
        assert!(Rc::ptr_eq(&h.doc, &doc), "pinned to the same document");
        assert_eq!(h.id, NodeId(2));
    }

    #[test]
    fn crc_detects_on_disk_corruption() {
        let gov = gov_with_spill(1 << 20);
        let mgr = SpillManager::create(&gov).unwrap();
        let mut f = mgr.new_file(&gov).unwrap();
        let mut buf = Vec::new();
        f.write_join_frame(&mut buf, 1, &sample_tuple()).unwrap();
        f.writer.as_mut().unwrap().flush().unwrap();
        // Flip one payload byte behind the reader's back.
        {
            let mut raw = std::fs::read(&f.path).unwrap();
            let last = raw.len() - 1;
            raw[last] ^= 0xFF;
            std::fs::write(&f.path, raw).unwrap();
        }
        f.start_read().unwrap();
        assert_eq!(f.read_frame().unwrap_err().code, ERR_SPILL_IO);
    }

    #[test]
    fn spill_files_and_dir_are_removed_on_drop() {
        let gov = gov_with_spill(1 << 20);
        let (dir, path) = {
            let mgr = SpillManager::create(&gov).unwrap();
            let mut f = mgr.new_file(&gov).unwrap();
            let mut buf = Vec::new();
            f.write_join_frame(&mut buf, 0, &sample_tuple()).unwrap();
            f.writer.as_mut().unwrap().flush().unwrap();
            let path = f.path.clone();
            assert!(path.exists());
            drop(f);
            assert!(!path.exists(), "file deleted on drop");
            (mgr.dir().clone(), path)
        };
        assert!(!dir.exists(), "scoped dir deleted with the manager");
        assert!(!path.exists());
        assert_eq!(gov.spill_bytes_used(), 0, "disk charge fully released");
        assert!(gov.spill_bytes_total() > 0);
    }

    #[test]
    fn disk_budget_exhaustion_trips_xqrg0006() {
        let gov = gov_with_spill(64);
        let mgr = SpillManager::create(&gov).unwrap();
        let mut f = mgr.new_file(&gov).unwrap();
        let mut buf = Vec::new();
        let mut last = Ok(());
        for _ in 0..8 {
            last = f.write_join_frame(&mut buf, 0, &sample_tuple());
            if last.is_err() {
                break;
            }
        }
        assert_eq!(last.unwrap_err().code, "XQRG0006");
    }

    #[test]
    fn retry_io_succeeds_after_transient_failures() {
        let gov = Governor::unlimited();
        let mut failures = 2;
        let v = retry_io("spill_test::transient", &gov, |_| {
            if failures > 0 {
                failures -= 1;
                Err(std::io::Error::other("flaky"))
            } else {
                Ok(99)
            }
        })
        .unwrap();
        assert_eq!(v, 99);
    }

    #[test]
    fn retry_io_exhaustion_is_xqrg0005() {
        let gov = Governor::unlimited();
        let err = retry_io::<()>("spill_test::dead", &gov, |_| {
            Err(std::io::Error::other("disk on fire"))
        })
        .unwrap_err();
        assert_eq!(err.code, ERR_SPILL_IO);
        assert!(err.message.contains("disk on fire"));
    }

    #[test]
    fn key_partitions_are_stable_and_depth_salted() {
        let k = [crate::joins::key_of(&AtomicValue::Integer(5)).unwrap()];
        assert_eq!(key_partition(&k, 0), key_partition(&k, 0));
        // Some depth within the cap must redistribute this key; otherwise
        // recursion could never help (astronomically unlikely to fail).
        let p0 = key_partition(&k, 0);
        assert!((1..=MAX_DEPTH).any(|d| key_partition(&k, d) != p0) || FANOUT == 1);
        assert!(on_path(&k, &[p0]));
    }
}
