//! Versioned binary persistence for durable sessions.
//!
//! The [`wire`](crate::wire) module frames what travels between a live
//! client and a live server; this module frames what survives a restart:
//! evaluation-key sets, preloaded plaintexts, the tenant session registry
//! and (one layer up, in `fides-core`) plan-cache entries. The format is
//! deliberately dumber than the wire protocol — a flat sequence of
//! self-checking records — because its failure mode is different: a wire
//! frame arrives once from a live peer that can resend, while a snapshot
//! is read back months later from storage that may have rotted.
//!
//! ## Stream layout
//!
//! ```text
//! [u32 PERSIST_MAGIC] [u32 FORMAT_VERSION]
//! repeat:
//!   [u8 kind] [u32 len] [len payload bytes] [u32 crc32(kind ‖ payload)]
//! terminated by an END record (kind 0, empty payload)
//! ```
//!
//! * **Versioned.** The header carries [`FORMAT_VERSION`]; a reader that
//!   sees any other version fails with
//!   [`ClientError::UnsupportedFormat`] before touching a record. Layout
//!   changes bump the version — there is no in-place format evolution.
//! * **Tagged + length-prefixed.** Every record declares its [`kind`] and
//!   payload length, so a reader can walk a stream without understanding
//!   every record (and reject unknown kinds with a typed error).
//! * **CRC-guarded.** Each record carries a CRC-32 over its kind byte and
//!   payload; any bit flip surfaces as
//!   [`ClientError::ChecksumMismatch`], never as garbage state.
//!
//! Decoding follows the same hostile-input discipline as the wire
//! `FrameDecoder`: truncation and corruption are typed [`ClientError`]s,
//! never panics, and a declared length beyond [`MAX_RECORD_LEN`] is
//! rejected *before* any allocation ([`ClientError::FrameTooLarge`]).

use std::io::{Read, Write};

use bytes::{Buf, BufMut};

use crate::error::ClientError;
use crate::raw::{RawPlaintext, RawSwitchingKey};
use crate::wire::{
    get_key, get_opt_key, get_plaintext, key_set_encoded_len, need, plaintext_encoded_len,
    put_key_set, put_plaintext, SessionRequest, SessionUpload,
};

/// Stream magic: distinguishes a persist stream from every wire frame.
pub const PERSIST_MAGIC: u32 = 0xF1DE_D15C;

/// The only format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// Hard bound on a single record's payload (2⁲⁸ bytes, matching the wire
/// decoder's frame bound). A declared length past this is rejected before
/// allocation.
pub const MAX_RECORD_LEN: usize = 1 << 28;

/// Record-kind tags. New kinds append; existing tags are frozen per
/// format version.
pub mod kind {
    /// Stream terminator (empty payload). A stream without one is
    /// truncated.
    pub const END: u8 = 0;
    /// [`ParamsRecord`](super::ParamsRecord): the parameter-chain
    /// fingerprint everything else in the stream is relative to.
    pub const PARAMS: u8 = 1;
    /// [`KeySetRecord`](super::KeySetRecord): relin/galois/conjugation
    /// switching keys.
    pub const KEY_SET: u8 = 2;
    /// [`PlaintextRecord`](super::PlaintextRecord): one preloaded
    /// evaluation-domain plaintext.
    pub const PLAINTEXT: u8 = 3;
    /// [`SessionRecord`](super::SessionRecord): one tenant's registry
    /// entry (id, device, weight, full key upload).
    pub const SESSION: u8 = 4;
    /// [`PlacementRecord`](super::PlacementRecord): one shard-router
    /// tenant → device placement.
    pub const PLACEMENT: u8 = 5;
    /// A serialized plan-cache entry. The payload codec lives in
    /// `fides-core` (plans reference scheduler types this crate does not
    /// know); this layer treats it as opaque bytes.
    pub const PLAN: u8 = 6;
    /// [`ServerMetaRecord`](super::ServerMetaRecord): server-level
    /// counters a restore validates against.
    pub const SERVER: u8 = 7;
}

const CRC_POLY: u32 = 0xEDB8_8320;

/// Input bytes one table-driven CRC step consumes.
const CRC_SLICES: usize = 16;

/// Slicing-by-16 lookup tables: `CRC_TABLES[k][b]` is the CRC state after
/// byte `b` followed by `k` zero bytes, so sixteen input bytes fold in
/// with sixteen independent lookups instead of 128 dependent shifts.
static CRC_TABLES: [[u32; 256]; CRC_SLICES] = crc_tables();

const fn crc_tables() -> [[u32; 256]; CRC_SLICES] {
    let mut tables = [[0u32; 256]; CRC_SLICES];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < CRC_SLICES {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// Incremental CRC-32 (IEEE 802.3, reflected — the zlib/PNG checksum):
/// [`Crc32::update`] any split of the input, then [`Crc32::finish`].
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The checksum of no bytes yet.
    pub const fn new() -> Self {
        Self { state: !0 }
    }

    /// Folds `data` in.
    pub fn update(&mut self, data: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.state;
        let mut blocks = data.chunks_exact(CRC_SLICES);
        for block in &mut blocks {
            // The running state only mixes into the block's first four
            // bytes; byte `i` then sits `CRC_SLICES - 1 - i` bytes from
            // the block's end.
            let head = crc.to_le_bytes();
            crc = 0;
            for (i, &b) in block.iter().enumerate() {
                let b = if i < 4 { b ^ head[i] } else { b };
                crc ^= t[CRC_SLICES - 1 - i][b as usize];
            }
        }
        for &b in blocks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything folded in so far.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// CRC-32 (IEEE, reflected) of a record's kind byte followed by its
/// payload.
pub fn record_crc(kind: u8, payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&[kind]);
    crc.update(payload);
    crc.finish()
}

fn io_err(e: std::io::Error) -> ClientError {
    ClientError::Io(e.to_string())
}

fn read_exact(r: &mut impl Read, buf: &mut [u8], what: &str) -> Result<(), ClientError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ClientError::Serialization(format!("truncated {what}"))
        } else {
            io_err(e)
        }
    })
}

/// Errors unless a record payload was consumed exactly.
fn expect_consumed(buf: &[u8], what: &str) -> Result<(), ClientError> {
    if buf.is_empty() {
        Ok(())
    } else {
        Err(ClientError::Serialization(format!(
            "{} trailing bytes after {what}",
            buf.len()
        )))
    }
}

/// Writes a persist stream: header, then CRC-guarded records, then the
/// END terminator on [`RecordWriter::finish`].
///
/// Payload bytes go to the sink as the encoder produces them — nothing is
/// staged per record — so hand a file or socket over inside a `BufWriter`.
pub struct RecordWriter<W: Write> {
    w: W,
}

/// Where a record's encoder writes ([`RecordWriter::record_with`]): every
/// byte goes straight to the stream's sink and into the record's CRC in
/// the same pass. `put_*` cannot fail mid-encoder, so the sink's first
/// I/O error is kept (later bytes are dropped) and `record_with` returns
/// it.
pub struct RecordSink<'a, W: Write> {
    w: &'a mut W,
    crc: Crc32,
    written: usize,
    failed: Option<std::io::Error>,
}

impl<W: Write> BufMut for RecordSink<'_, W> {
    fn put_slice(&mut self, src: &[u8]) {
        self.written += src.len();
        if self.failed.is_some() {
            return;
        }
        self.crc.update(src);
        self.failed = self.w.write_all(src).err();
    }
}

impl<W: Write> RecordWriter<W> {
    /// Starts a stream on `w`, writing the magic/version header.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the sink fails.
    pub fn new(mut w: W) -> Result<Self, ClientError> {
        let mut hdr = [0u8; 8];
        hdr[..4].copy_from_slice(&PERSIST_MAGIC.to_be_bytes());
        hdr[4..].copy_from_slice(&FORMAT_VERSION.to_be_bytes());
        w.write_all(&hdr).map_err(io_err)?;
        Ok(Self { w })
    }

    /// Appends one record whose `len`-byte payload `encode` writes into
    /// the stream directly (see [`RecordSink`]): one pass over the source
    /// data, no intermediate payload buffer. `len` comes from the payload
    /// type's `encoded_len`.
    ///
    /// # Errors
    ///
    /// [`ClientError::FrameTooLarge`] past [`MAX_RECORD_LEN`];
    /// [`ClientError::Io`] when the sink fails;
    /// [`ClientError::Serialization`] when `encode` wrote a different
    /// number of bytes than `len` declared (the stream is then unusable).
    pub fn record_with(
        &mut self,
        kind: u8,
        len: usize,
        encode: impl FnOnce(&mut RecordSink<'_, W>),
    ) -> Result<(), ClientError> {
        if len > MAX_RECORD_LEN {
            return Err(ClientError::FrameTooLarge {
                len: len as u64,
                max: MAX_RECORD_LEN as u64,
            });
        }
        let mut hdr = [kind, 0, 0, 0, 0];
        hdr[1..].copy_from_slice(&(len as u32).to_be_bytes());
        self.w.write_all(&hdr).map_err(io_err)?;
        let mut sink = RecordSink {
            w: &mut self.w,
            crc: Crc32::new(),
            written: 0,
            failed: None,
        };
        sink.crc.update(&[kind]);
        encode(&mut sink);
        let RecordSink {
            crc,
            written,
            failed,
            ..
        } = sink;
        if let Some(e) = failed {
            return Err(io_err(e));
        }
        if written != len {
            return Err(ClientError::Serialization(format!(
                "record kind {kind} declared {len} payload bytes, its encoder wrote {written}"
            )));
        }
        self.w
            .write_all(&crc.finish().to_be_bytes())
            .map_err(io_err)
    }

    /// Appends one record from an already encoded payload.
    ///
    /// # Errors
    ///
    /// As [`RecordWriter::record_with`].
    pub fn record(&mut self, kind: u8, payload: &[u8]) -> Result<(), ClientError> {
        self.record_with(kind, payload.len(), |out| out.put_slice(payload))
    }

    /// Writes the END terminator, flushes, and returns the sink. A stream
    /// abandoned without this reads back as truncated — by design.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the sink fails.
    pub fn finish(mut self) -> Result<W, ClientError> {
        self.record(kind::END, &[])?;
        self.w.flush().map_err(io_err)?;
        Ok(self.w)
    }
}

/// One decoded record: its kind tag and raw payload (already
/// CRC-verified).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// The [`kind`] tag.
    pub kind: u8,
    /// The payload bytes (interpret per kind).
    pub payload: Vec<u8>,
}

/// A decoded record borrowing the reader's payload buffer
/// ([`RecordReader::read_record`]); valid until the next read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// The [`kind`] tag.
    pub kind: u8,
    /// The payload bytes (interpret per kind).
    pub payload: &'a [u8],
}

/// Reads a persist stream, validating the header once and each record's
/// length and CRC as it goes.
pub struct RecordReader<R: Read> {
    r: R,
    done: bool,
    /// The current record's payload; its allocation is reused from record
    /// to record.
    payload: Vec<u8>,
}

impl<R: Read> RecordReader<R> {
    /// Opens a stream, checking magic and version.
    ///
    /// # Errors
    ///
    /// [`ClientError::Serialization`] for a foreign magic or truncated
    /// header; [`ClientError::UnsupportedFormat`] for a version this
    /// build does not read.
    pub fn new(mut r: R) -> Result<Self, ClientError> {
        let mut hdr = [0u8; 8];
        read_exact(&mut r, &mut hdr, "persist header")?;
        let magic = u32::from_be_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
        if magic != PERSIST_MAGIC {
            return Err(ClientError::Serialization(format!(
                "bad persist magic {magic:#010x}"
            )));
        }
        let version = u32::from_be_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]);
        if version != FORMAT_VERSION {
            return Err(ClientError::UnsupportedFormat {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        Ok(Self {
            r,
            done: false,
            payload: Vec::new(),
        })
    }

    /// The next record, borrowed from the reader's one payload buffer, or
    /// `None` once the END terminator has been read.
    ///
    /// # Errors
    ///
    /// [`ClientError::Serialization`] for truncation,
    /// [`ClientError::FrameTooLarge`] for an oversized declared length
    /// (checked before allocation), [`ClientError::ChecksumMismatch`]
    /// for CRC failures, [`ClientError::Io`] for source failures.
    pub fn read_record(&mut self) -> Result<Option<RecordRef<'_>>, ClientError> {
        if self.done {
            return Ok(None);
        }
        let mut hdr = [0u8; 5];
        read_exact(&mut self.r, &mut hdr, "record header")?;
        let kind = hdr[0];
        let len = u32::from_be_bytes([hdr[1], hdr[2], hdr[3], hdr[4]]) as usize;
        if len > MAX_RECORD_LEN {
            return Err(ClientError::FrameTooLarge {
                len: len as u64,
                max: MAX_RECORD_LEN as u64,
            });
        }
        // Bounded-capacity growth: a lying length prefix costs at most one
        // read buffer beyond what earlier records really carried, never a
        // `len`-sized allocation up front.
        self.payload.clear();
        self.payload.reserve(len.min(1 << 16));
        let got = (&mut self.r)
            .take(len as u64)
            .read_to_end(&mut self.payload)
            .map_err(io_err)?;
        if got < len {
            return Err(ClientError::Serialization(format!(
                "truncated record payload (kind {kind}: {got} of {len} bytes)"
            )));
        }
        let mut crc_buf = [0u8; 4];
        read_exact(&mut self.r, &mut crc_buf, "record checksum")?;
        if u32::from_be_bytes(crc_buf) != record_crc(kind, &self.payload) {
            return Err(ClientError::ChecksumMismatch { kind });
        }
        if kind == kind::END {
            if !self.payload.is_empty() {
                return Err(ClientError::Serialization(
                    "end record carries a payload".into(),
                ));
            }
            self.done = true;
            return Ok(None);
        }
        Ok(Some(RecordRef {
            kind,
            payload: &self.payload,
        }))
    }

    /// [`RecordReader::read_record`], with the payload moved out into an
    /// owned [`Record`] (the next record then starts a fresh buffer).
    ///
    /// # Errors
    ///
    /// As [`RecordReader::read_record`].
    pub fn next_record(&mut self) -> Result<Option<Record>, ClientError> {
        let Some(kind) = self.read_record()?.map(|rec| rec.kind) else {
            return Ok(None);
        };
        Ok(Some(Record {
            kind,
            payload: std::mem::take(&mut self.payload),
        }))
    }

    /// Whether the END terminator has been consumed (a clean stream).
    pub fn finished(&self) -> bool {
        self.done
    }
}

/// The parameter-chain fingerprint a stream's key material belongs to
/// ([`kind::PARAMS`]). Readers reject streams whose fingerprint does not
/// match the chain they serve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParamsRecord {
    /// [`crate::wire::params_fingerprint`] of the chain.
    pub params_hash: u64,
}

impl ParamsRecord {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8);
        buf.put_u64_le(self.params_hash);
        buf
    }

    /// Deserializes a [`kind::PARAMS`] payload.
    ///
    /// # Errors
    ///
    /// [`ClientError::Serialization`] for truncation or trailing bytes.
    pub fn decode(mut payload: &[u8]) -> Result<Self, ClientError> {
        let buf = &mut payload;
        need(buf, 8, "params record")?;
        let params_hash = buf.get_u64_le();
        expect_consumed(buf, "params record")?;
        Ok(Self { params_hash })
    }
}

/// Server-level restore metadata ([`kind::SERVER`]): shape counters a
/// restore validates so a silently truncated stream cannot pass for a
/// complete one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerMetaRecord {
    /// Device-shard count the snapshot's placements assume.
    pub num_devices: u32,
    /// The registry's next session id (ids are never reused across a
    /// restart).
    pub next_session_id: u64,
    /// Session records that follow in the stream.
    pub sessions: u32,
    /// Plan records that follow in the stream.
    pub plans: u32,
}

impl ServerMetaRecord {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(20);
        buf.put_u32(self.num_devices);
        buf.put_u64_le(self.next_session_id);
        buf.put_u32(self.sessions);
        buf.put_u32(self.plans);
        buf
    }

    /// Deserializes a [`kind::SERVER`] payload.
    ///
    /// # Errors
    ///
    /// [`ClientError::Serialization`] for truncation or trailing bytes.
    pub fn decode(mut payload: &[u8]) -> Result<Self, ClientError> {
        let buf = &mut payload;
        need(buf, 20, "server meta record")?;
        let num_devices = buf.get_u32();
        let next_session_id = buf.get_u64_le();
        let sessions = buf.get_u32();
        let plans = buf.get_u32();
        expect_consumed(buf, "server meta record")?;
        Ok(Self {
            num_devices,
            next_session_id,
            sessions,
            plans,
        })
    }
}

/// An evaluation-key set ([`kind::KEY_SET`]): the relinearization key,
/// rotation (galois) keys by shift, and the conjugation key — the same
/// material a wire `SessionRequest` uploads, minus plaintexts.
#[derive(Clone, Debug, PartialEq)]
pub struct KeySetRecord {
    /// Relinearization key, when generated.
    pub relin: Option<RawSwitchingKey>,
    /// Rotation keys as `(shift, key)` pairs.
    pub rotations: Vec<(i32, RawSwitchingKey)>,
    /// Conjugation key, when generated.
    pub conjugation: Option<RawSwitchingKey>,
}

impl KeySetRecord {
    /// Length of the [`Self::encode`] payload, from the limb counts alone.
    pub fn encoded_len(&self) -> usize {
        key_set_encoded_len(
            self.relin.as_ref(),
            &self.rotations,
            self.conjugation.as_ref(),
        )
    }

    /// Appends the payload to `buf` (a `Vec`, or a
    /// [`RecordWriter::record_with`] sink).
    pub fn write_into(&self, buf: &mut impl BufMut) {
        put_key_set(
            buf,
            self.relin.as_ref(),
            &self.rotations,
            self.conjugation.as_ref(),
        );
    }

    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.write_into(&mut buf);
        buf
    }

    /// Deserializes a [`kind::KEY_SET`] payload.
    ///
    /// # Errors
    ///
    /// [`ClientError::Serialization`] describing the corruption.
    pub fn decode(mut payload: &[u8]) -> Result<Self, ClientError> {
        let buf = &mut payload;
        let relin = get_opt_key(buf)?;
        need(buf, 4, "rotation count")?;
        let num_rot = buf.get_u32() as usize;
        let mut rotations = Vec::with_capacity(num_rot.min(1 << 12));
        for _ in 0..num_rot {
            need(buf, 4, "rotation shift")?;
            let shift = buf.get_u32() as i32;
            rotations.push((shift, get_key(buf)?));
        }
        let conjugation = get_opt_key(buf)?;
        expect_consumed(buf, "key-set record")?;
        Ok(Self {
            relin,
            rotations,
            conjugation,
        })
    }
}

/// One preloaded evaluation-domain plaintext ([`kind::PLAINTEXT`]) — the
/// serialized form a server's `BackendPt` cache entry is rebuilt from.
#[derive(Clone, Debug, PartialEq)]
pub struct PlaintextRecord {
    /// The plaintext in wire form.
    pub plaintext: RawPlaintext,
}

impl PlaintextRecord {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(plaintext_encoded_len(&self.plaintext));
        put_plaintext(&mut buf, &self.plaintext);
        buf
    }

    /// Deserializes a [`kind::PLAINTEXT`] payload.
    ///
    /// # Errors
    ///
    /// [`ClientError::Serialization`] describing the corruption.
    pub fn decode(mut payload: &[u8]) -> Result<Self, ClientError> {
        let buf = &mut payload;
        let plaintext = get_plaintext(buf)?;
        expect_consumed(buf, "plaintext record")?;
        Ok(Self { plaintext })
    }
}

/// One tenant's registry entry ([`kind::SESSION`]): the session id and
/// scheduling weight plus the tenant's full key upload, from which a
/// restore rebuilds device residency. Records appear in
/// least-recently-used-first order so a restore reproduces the LRU
/// eviction order exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionRecord {
    /// Session id (preserved across restarts — clients keep their
    /// tickets).
    pub id: u64,
    /// Device shard holding the tenant's keys.
    pub device: u32,
    /// DRR scheduling weight (1 = default).
    pub weight: u32,
    /// The tenant's original keygen upload.
    pub upload: SessionRequest,
}

/// A [`SessionRecord`] **by reference** — the one encoder of the
/// [`kind::SESSION`] payload. A snapshot writes each resident tenant's
/// record straight from the registry's retained upload through
/// [`RecordWriter::record_with`], never cloning or staging the key
/// material.
#[derive(Clone, Copy, Debug)]
pub struct SessionRecordRef<'a> {
    /// See [`SessionRecord::id`].
    pub id: u64,
    /// See [`SessionRecord::device`].
    pub device: u32,
    /// See [`SessionRecord::weight`].
    pub weight: u32,
    /// See [`SessionRecord::upload`].
    pub upload: SessionUpload<'a>,
}

impl SessionRecordRef<'_> {
    /// Length of the payload, from the limb counts alone.
    pub fn encoded_len(&self) -> usize {
        24 + self.upload.encoded_len()
    }

    /// Appends the payload to `buf` (a `Vec`, or a
    /// [`RecordWriter::record_with`] sink).
    pub fn write_into(&self, buf: &mut impl BufMut) {
        buf.put_u64_le(self.id);
        buf.put_u32(self.device);
        buf.put_u32(self.weight);
        buf.put_u64_le(self.upload.encoded_len() as u64);
        self.upload.write_into(buf);
    }
}

impl SessionRecord {
    /// This record, borrowed — the form the encoder takes.
    pub fn borrowed(&self) -> SessionRecordRef<'_> {
        SessionRecordRef {
            id: self.id,
            device: self.device,
            weight: self.weight,
            upload: self.upload.as_upload(),
        }
    }

    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let rec = self.borrowed();
        let mut buf = Vec::with_capacity(rec.encoded_len());
        rec.write_into(&mut buf);
        buf
    }

    /// Deserializes a [`kind::SESSION`] payload.
    ///
    /// # Errors
    ///
    /// [`ClientError::Serialization`] describing the corruption.
    pub fn decode(mut payload: &[u8]) -> Result<Self, ClientError> {
        let buf = &mut payload;
        need(buf, 24, "session record header")?;
        let id = buf.get_u64_le();
        let device = buf.get_u32();
        let weight = buf.get_u32();
        let len = buf.get_u64_le() as usize;
        need(buf, len, "session upload")?;
        let (head, rest) = buf.split_at(len);
        let upload = SessionRequest::from_bytes(head)?;
        *buf = rest;
        expect_consumed(buf, "session record")?;
        Ok(Self {
            id,
            device,
            weight,
            upload,
        })
    }
}

/// One shard-router placement ([`kind::PLACEMENT`]): where a tenant's
/// keys live and what re-placing them costs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlacementRecord {
    /// Tenant (session) id.
    pub tenant: u64,
    /// Home device shard.
    pub device: u32,
    /// Key-frame size in bytes (the migration cost).
    pub key_bytes: u64,
}

impl PlacementRecord {
    /// Serializes the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(20);
        buf.put_u64_le(self.tenant);
        buf.put_u32(self.device);
        buf.put_u64_le(self.key_bytes);
        buf
    }

    /// Deserializes a [`kind::PLACEMENT`] payload.
    ///
    /// # Errors
    ///
    /// [`ClientError::Serialization`] for truncation or trailing bytes.
    pub fn decode(mut payload: &[u8]) -> Result<Self, ClientError> {
        let buf = &mut payload;
        need(buf, 20, "placement record")?;
        let tenant = buf.get_u64_le();
        let device = buf.get_u32();
        let key_bytes = buf.get_u64_le();
        expect_consumed(buf, "placement record")?;
        Ok(Self {
            tenant,
            device,
            key_bytes,
        })
    }
}

/// The bit-at-a-time CRC-32 the table-driven [`Crc32`] replaced — kept as
/// the independent definition the differential test holds it to.
#[cfg(test)]
mod reference {
    /// Folds one byte into a raw (un-inverted) CRC state.
    pub(super) fn crc32_bitwise_step(mut crc: u32, byte: u8) -> u32 {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (super::CRC_POLY & mask);
        }
        crc
    }

    pub(super) fn crc32_bitwise(data: &[u8]) -> u32 {
        !data.iter().fold(!0, |crc, &b| crc32_bitwise_step(crc, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::{Domain, RawKeyDigit, RawPoly};
    use proptest::prelude::*;

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    #[test]
    fn crc32_check_value() {
        // The catalogue check value of CRC-32/ISO-HDLC (zlib, PNG).
        let mut crc = Crc32::new();
        crc.update(b"123456789");
        assert_eq!(crc.finish(), 0xCBF4_3926);
        assert_eq!(reference::crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(Crc32::new().finish(), 0, "empty input");
    }

    /// Table-driven vs bit-at-a-time at every length below 4096 from every
    /// start alignment within a word (the bitwise state after `len` bytes
    /// is every prefix's reference, so one pass per alignment covers all
    /// lengths).
    #[test]
    fn table_crc_matches_bitwise_at_every_length_and_alignment() {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let backing: Vec<u8> = (0..4096 + 8).map(|_| xorshift(&mut s) as u8).collect();
        for align in 0..8 {
            let data = &backing[align..];
            let mut bitwise = !0u32;
            for len in 0..4096 {
                let mut table = Crc32::new();
                table.update(&data[..len]);
                assert_eq!(table.finish(), !bitwise, "align {align}, len {len}");
                bitwise = reference::crc32_bitwise_step(bitwise, data[len]);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any split of the input across incremental `update` calls folds
        /// to the one-shot (and the bitwise) checksum.
        #[test]
        fn crc_update_is_split_invariant(
            seed in any::<u64>(),
            len in 0usize..4096,
            align in 0usize..8,
            splits in 0usize..6,
        ) {
            let mut s = seed | 1;
            let backing: Vec<u8> = (0..len + align).map(|_| xorshift(&mut s) as u8).collect();
            let data = &backing[align..];
            let mut cuts: Vec<usize> = (0..splits)
                .map(|_| xorshift(&mut s) as usize % (len + 1))
                .collect();
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([len]) {
                crc.update(&data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(crc.finish(), reference::crc32_bitwise(data));
        }
    }

    #[test]
    fn record_with_streams_the_bytes_record_buffers() {
        let key = sample_key(23);
        let keys = KeySetRecord {
            relin: Some(key.clone()),
            rotations: vec![(3, key)],
            conjugation: None,
        };
        let mut streamed = RecordWriter::new(Vec::new()).unwrap();
        streamed
            .record_with(kind::KEY_SET, keys.encoded_len(), |out| {
                keys.write_into(out)
            })
            .unwrap();
        let buffered = roundtrip_stream(&[(kind::KEY_SET, keys.encode())]);
        assert_eq!(streamed.finish().unwrap(), buffered);
    }

    #[test]
    fn record_with_rejects_a_lying_length() {
        for declared in [3usize, 5] {
            let mut w = RecordWriter::new(Vec::new()).unwrap();
            assert!(matches!(
                w.record_with(kind::PARAMS, declared, |out| out.put_u32(7)),
                Err(ClientError::Serialization(_))
            ));
        }
        let mut w = RecordWriter::new(Vec::new()).unwrap();
        assert!(matches!(
            w.record_with(kind::PLAN, MAX_RECORD_LEN + 1, |_| {}),
            Err(ClientError::FrameTooLarge { .. })
        ));
        assert_eq!(w.w.len(), 8, "rejected before a byte of the record");
    }

    fn sample_key(seed: u64) -> RawSwitchingKey {
        let mut x = seed | 1;
        let mut word = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let poly = |w: &mut dyn FnMut() -> u64| RawPoly {
            limbs: (0..2).map(|_| (0..8).map(|_| w()).collect()).collect(),
            domain: Domain::Eval,
        };
        RawSwitchingKey {
            digits: (0..2)
                .map(|_| RawKeyDigit {
                    b: poly(&mut word),
                    a: poly(&mut word),
                })
                .collect(),
        }
    }

    fn sample_plaintext() -> RawPlaintext {
        RawPlaintext {
            poly: RawPoly::zero(16, 2, Domain::Eval),
            level: 1,
            scale: 2f64.powi(40),
            slots: 8,
        }
    }

    fn roundtrip_stream(records: &[(u8, Vec<u8>)]) -> Vec<u8> {
        let mut w = RecordWriter::new(Vec::new()).unwrap();
        for (kind, payload) in records {
            w.record(*kind, payload).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn stream_roundtrips_records_in_order() {
        let recs = vec![
            (kind::PARAMS, ParamsRecord { params_hash: 42 }.encode()),
            (
                kind::PLAINTEXT,
                PlaintextRecord {
                    plaintext: sample_plaintext(),
                }
                .encode(),
            ),
        ];
        let bytes = roundtrip_stream(&recs);
        let mut r = RecordReader::new(&bytes[..]).unwrap();
        for (kind, payload) in &recs {
            let rec = r.next_record().unwrap().unwrap();
            assert_eq!(rec.kind, *kind);
            assert_eq!(&rec.payload, payload);
        }
        assert!(r.next_record().unwrap().is_none());
        assert!(r.finished());
        // Idempotent after END.
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn key_set_roundtrip() {
        let rec = KeySetRecord {
            relin: Some(sample_key(3)),
            rotations: vec![(1, sample_key(5)), (-4, sample_key(7))],
            conjugation: None,
        };
        assert_eq!(KeySetRecord::decode(&rec.encode()).unwrap(), rec);
    }

    #[test]
    fn session_record_roundtrip() {
        let rec = SessionRecord {
            id: 9,
            device: 2,
            weight: 4,
            upload: SessionRequest {
                params_hash: 77,
                relin: Some(sample_key(11)),
                rotations: vec![(2, sample_key(13))],
                conjugation: Some(sample_key(17)),
                plaintexts: vec![sample_plaintext()],
            },
        };
        assert_eq!(SessionRecord::decode(&rec.encode()).unwrap(), rec);
    }

    #[test]
    fn meta_and_placement_roundtrip() {
        let meta = ServerMetaRecord {
            num_devices: 4,
            next_session_id: 17,
            sessions: 3,
            plans: 2,
        };
        assert_eq!(ServerMetaRecord::decode(&meta.encode()).unwrap(), meta);
        let p = PlacementRecord {
            tenant: 8,
            device: 3,
            key_bytes: 123456,
        };
        assert_eq!(PlacementRecord::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut bytes = roundtrip_stream(&[]);
        bytes[7] = 9; // forge version 9
        match RecordReader::new(&bytes[..]).err() {
            Some(ClientError::UnsupportedFormat {
                found: 9,
                supported: FORMAT_VERSION,
            }) => {}
            other => panic!("expected UnsupportedFormat, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = roundtrip_stream(&[]);
        bytes[0] ^= 0xFF;
        assert!(matches!(
            RecordReader::new(&bytes[..]).err(),
            Some(ClientError::Serialization(_))
        ));
    }

    #[test]
    fn bit_flip_fails_crc() {
        let bytes = roundtrip_stream(&[(kind::PARAMS, ParamsRecord { params_hash: 1 }.encode())]);
        // Flip one payload bit (past the 8-byte header and 5-byte record
        // header).
        let mut corrupt = bytes.clone();
        corrupt[14] ^= 0x01;
        let mut r = RecordReader::new(&corrupt[..]).unwrap();
        assert!(matches!(
            r.next_record(),
            Err(ClientError::ChecksumMismatch { kind: kind::PARAMS })
        ));
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let bytes = roundtrip_stream(&[(kind::PARAMS, ParamsRecord { params_hash: 1 }.encode())]);
        for cut in 0..bytes.len() {
            let slice = &bytes[..cut];
            if let Ok(mut r) = RecordReader::new(slice) {
                loop {
                    match r.next_record() {
                        Ok(Some(_)) => continue,
                        Ok(None) => {
                            assert!(r.finished(), "clean EOF only via END record");
                            break;
                        }
                        Err(_) => break,
                    }
                }
            }
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.put_u32(PERSIST_MAGIC);
        bytes.put_u32(FORMAT_VERSION);
        bytes.put_u8(kind::PLAN);
        bytes.put_u32(u32::MAX); // 4 GiB declared, nothing behind it
        let mut r = RecordReader::new(&bytes[..]).unwrap();
        assert!(matches!(
            r.next_record(),
            Err(ClientError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn missing_end_record_reads_as_truncated() {
        let mut w = RecordWriter::new(Vec::new()).unwrap();
        w.record(kind::PARAMS, &ParamsRecord { params_hash: 5 }.encode())
            .unwrap();
        let bytes = w.w; // abandon without finish()
        let mut r = RecordReader::new(&bytes[..]).unwrap();
        assert!(r.next_record().unwrap().is_some());
        assert!(matches!(
            r.next_record(),
            Err(ClientError::Serialization(_))
        ));
    }
}
