//! The client↔server wire protocol of the serving layer (paper Fig. 1).
//!
//! The paper's architecture is client/server: a thin CKKS client feeds
//! `Raw*` interchange structures to a GPU evaluation server. This module
//! adds the three request/response frames that ride on top of the `Raw*`
//! serde layer so *many* clients can share one server:
//!
//! * [`SessionRequest`] — a keygen upload: evaluation keys (relinearization,
//!   rotations, conjugation) plus plaintext operands the tenant wants
//!   preloaded server-side (e.g. model weights), all bound to a parameter
//!   fingerprint so a client can never attach to a mismatched chain;
//! * [`EvalRequest`] — encrypted operands plus an [`OpProgram`] describing
//!   the homomorphic circuit to run over them;
//! * [`EvalResponse`] — the result ciphertexts (or a typed error message).
//!
//! Programs are a tiny register machine: registers `0..inputs` name the
//! request's ciphertexts, each executed op appends one result register, and
//! `outputs` selects which registers come back. The encoding is the same
//! compact explicit binary framing as [`RawCiphertext::to_bytes`] — the
//! vendored `serde` is a no-op stand-in, so nothing here depends on it.

use bytes::{Buf, BufMut};

use crate::error::ClientError;
use crate::raw::{
    get_poly, poly_encoded_len, put_poly, RawCiphertext, RawKeyDigit, RawParams, RawPlaintext,
    RawSwitchingKey,
};

/// Stable fingerprint of a parameter set (FNV-1a over the canonical
/// encoding). Client and server must agree on it before any ciphertext
/// crosses the wire; [`SessionRequest::params_hash`] carries the client's
/// view.
pub fn params_fingerprint(p: &RawParams) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(p.log_n as u64);
    eat(p.scale_bits as u64);
    eat(p.dnum as u64);
    eat(p.moduli_q.len() as u64);
    for &q in &p.moduli_q {
        eat(q);
    }
    eat(p.moduli_p.len() as u64);
    for &q in &p.moduli_p {
        eat(q);
    }
    h
}

/// One instruction of the request register machine.
///
/// Register operands (`a`, `b`) index previously defined registers; `plain`
/// indexes the tenant's preloaded plaintext slots
/// ([`SessionRequest::plaintexts`]). Every op follows the engine's
/// standard-ladder policy: multiplications relinearize where needed and
/// rescale immediately, binary ops align operand levels by dropping the
/// higher one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProgramOp {
    /// HAdd (levels auto-aligned).
    Add {
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// HSub (levels auto-aligned).
    Sub {
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// HMult with relinearization, rescaled. Consumes one level.
    Mul {
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// HSquare with relinearization, rescaled. Consumes one level.
    Square {
        /// Operand register.
        a: u32,
    },
    /// Negation (exact).
    Negate {
        /// Operand register.
        a: u32,
    },
    /// ScalarAdd (exact, no level consumed).
    AddScalar {
        /// Operand register.
        a: u32,
        /// Scalar addend.
        c: f64,
    },
    /// ScalarMult at the ladder-exact constant scale, rescaled. Consumes one
    /// level.
    MulScalar {
        /// Operand register.
        a: u32,
        /// Scalar factor.
        c: f64,
    },
    /// Exact small-integer multiplication (no scale change).
    MulInt {
        /// Operand register.
        a: u32,
        /// Integer factor.
        k: i64,
    },
    /// HRotate by `k` slots (the session must carry the rotation key).
    Rotate {
        /// Operand register.
        a: u32,
        /// Slot shift (positive = left).
        k: i32,
    },
    /// HConjugate (the session must carry the conjugation key).
    Conjugate {
        /// Operand register.
        a: u32,
    },
    /// PtMult by preloaded plaintext slot `plain`, rescaled. Consumes one
    /// level.
    MulPlain {
        /// Operand register.
        a: u32,
        /// Preloaded plaintext slot.
        plain: u32,
    },
}

impl ProgramOp {
    fn regs(&self) -> (u32, Option<u32>) {
        match *self {
            ProgramOp::Add { a, b } | ProgramOp::Sub { a, b } | ProgramOp::Mul { a, b } => {
                (a, Some(b))
            }
            ProgramOp::Square { a }
            | ProgramOp::Negate { a }
            | ProgramOp::AddScalar { a, .. }
            | ProgramOp::MulScalar { a, .. }
            | ProgramOp::MulInt { a, .. }
            | ProgramOp::Rotate { a, .. }
            | ProgramOp::Conjugate { a } => (a, None),
            ProgramOp::MulPlain { a, .. } => (a, None),
        }
    }

    fn plain_slot(&self) -> Option<u32> {
        match *self {
            ProgramOp::MulPlain { plain, .. } => Some(plain),
            _ => None,
        }
    }
}

/// A homomorphic circuit over a request's input ciphertexts, as a register
/// program (see [`ProgramOp`] for the register convention).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpProgram {
    /// Number of input ciphertexts the program expects (registers
    /// `0..inputs`).
    pub inputs: u32,
    /// Instructions, in execution order; op `i` defines register
    /// `inputs + i`.
    pub ops: Vec<ProgramOp>,
    /// Registers returned to the client, in response order.
    pub outputs: Vec<u32>,
}

impl OpProgram {
    /// An empty program over `inputs` input ciphertexts.
    pub fn new(inputs: u32) -> Self {
        Self {
            inputs,
            ops: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Appends an instruction and returns the register it defines.
    pub fn push(&mut self, op: ProgramOp) -> u32 {
        self.ops.push(op);
        self.inputs + (self.ops.len() as u32 - 1)
    }

    /// Marks a register as an output.
    pub fn output(&mut self, reg: u32) {
        self.outputs.push(reg);
    }

    /// Total register count once fully executed.
    pub fn reg_count(&self) -> u32 {
        self.inputs + self.ops.len() as u32
    }

    /// Structural validation: every register operand must refer to an
    /// already-defined register, every plaintext slot must exist among the
    /// session's `plains` preloaded plaintexts, every scalar constant must be
    /// finite, and at least one output must be requested.
    ///
    /// # Errors
    ///
    /// [`ClientError::BadProgram`] describing the first violation.
    pub fn validate(&self, plains: usize) -> Result<(), ClientError> {
        for (i, op) in self.ops.iter().enumerate() {
            let defined = self.inputs + i as u32;
            let (a, b) = op.regs();
            if a >= defined || b.is_some_and(|b| b >= defined) {
                return Err(ClientError::BadProgram(format!(
                    "op {i} ({op:?}) reads a register not yet defined (registers 0..{defined})"
                )));
            }
            if let Some(slot) = op.plain_slot() {
                if slot as usize >= plains {
                    return Err(ClientError::BadProgram(format!(
                        "op {i} reads preloaded plaintext slot {slot} but the session holds \
                         {plains}"
                    )));
                }
            }
            if let ProgramOp::AddScalar { c, .. } | ProgramOp::MulScalar { c, .. } = *op {
                if !c.is_finite() {
                    return Err(ClientError::BadProgram(format!(
                        "op {i} ({op:?}) has a non-finite scalar"
                    )));
                }
            }
        }
        if self.outputs.is_empty() {
            return Err(ClientError::BadProgram(
                "program requests no outputs".into(),
            ));
        }
        for &r in &self.outputs {
            if r >= self.reg_count() {
                return Err(ClientError::BadProgram(format!(
                    "output register {r} out of range (registers 0..{})",
                    self.reg_count()
                )));
            }
        }
        Ok(())
    }
}

/// A keygen upload: everything the server must hold to evaluate on behalf of
/// one tenant. The secret key never appears — security rests entirely on the
/// client side (§III-B).
#[derive(Clone, Debug, PartialEq)]
pub struct SessionRequest {
    /// The client's parameter fingerprint ([`params_fingerprint`]); the
    /// server rejects mismatches before touching any key material.
    pub params_hash: u64,
    /// Relinearization key (needed by `Mul`/`Square` ops).
    pub relin: Option<RawSwitchingKey>,
    /// Rotation keys, paired with their slot shifts.
    pub rotations: Vec<(i32, RawSwitchingKey)>,
    /// Conjugation key.
    pub conjugation: Option<RawSwitchingKey>,
    /// Plaintext operands preloaded into the server's evaluation-domain
    /// cache (the operands of repeated `MulPlain`s, e.g. model weights).
    pub plaintexts: Vec<RawPlaintext>,
}

/// A keygen upload **by reference**: the fields of a [`SessionRequest`],
/// borrowed. This is the one encoder of the session frame — a holder of key
/// material (the server's registry, an engine's key set) serializes it in
/// place instead of cloning ~MBs of switching keys into an owned
/// [`SessionRequest`] first; [`SessionRequest::to_bytes`] goes through it
/// too.
#[derive(Clone, Copy, Debug)]
pub struct SessionUpload<'a> {
    /// See [`SessionRequest::params_hash`].
    pub params_hash: u64,
    /// See [`SessionRequest::relin`].
    pub relin: Option<&'a RawSwitchingKey>,
    /// See [`SessionRequest::rotations`].
    pub rotations: &'a [(i32, RawSwitchingKey)],
    /// See [`SessionRequest::conjugation`].
    pub conjugation: Option<&'a RawSwitchingKey>,
    /// See [`SessionRequest::plaintexts`].
    pub plaintexts: &'a [RawPlaintext],
}

/// One evaluation request: encrypted operands plus the circuit to run.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalRequest {
    /// Session id returned by the server at session-open.
    pub session_id: u64,
    /// Input ciphertexts (program registers `0..inputs.len()`).
    pub inputs: Vec<RawCiphertext>,
    /// The circuit.
    pub program: OpProgram,
}

/// The server's answer to an [`EvalRequest`].
#[derive(Clone, Debug, PartialEq)]
pub struct EvalResponse {
    /// Output ciphertexts, in [`OpProgram::outputs`] order (empty on error).
    pub outputs: Vec<RawCiphertext>,
    /// Human-readable failure description, when the request failed.
    pub error: Option<String>,
}

const SESSION_MAGIC: u32 = 0xF1DE_5E55;
const EVAL_MAGIC: u32 = 0xF1DE_0E4A;
const RESP_MAGIC: u32 = 0xF1DE_0E4B;

pub(crate) fn need(buf: &[u8], bytes: usize, what: &str) -> Result<(), ClientError> {
    if buf.remaining() < bytes {
        return Err(ClientError::Serialization(format!("truncated {what}")));
    }
    Ok(())
}

fn put_string(buf: &mut impl BufMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_string(buf: &mut &[u8]) -> Result<String, ClientError> {
    need(buf, 4, "string header")?;
    let len = buf.get_u32() as usize;
    need(buf, len, "string body")?;
    let (head, rest) = buf.split_at(len);
    let s = std::str::from_utf8(head)
        .map_err(|_| ClientError::Serialization("non-UTF8 string".into()))?
        .to_string();
    *buf = rest;
    Ok(s)
}

pub(crate) fn plaintext_encoded_len(pt: &RawPlaintext) -> usize {
    16 + poly_encoded_len(&pt.poly)
}

pub(crate) fn put_plaintext(buf: &mut impl BufMut, pt: &RawPlaintext) {
    buf.put_u32(pt.level as u32);
    buf.put_f64(pt.scale);
    buf.put_u32(pt.slots as u32);
    put_poly(buf, &pt.poly);
}

pub(crate) fn get_plaintext(buf: &mut &[u8]) -> Result<RawPlaintext, ClientError> {
    need(buf, 16, "plaintext header")?;
    let level = buf.get_u32() as usize;
    let scale = buf.get_f64();
    let slots = buf.get_u32() as usize;
    let poly = get_poly(buf)?;
    Ok(RawPlaintext {
        poly,
        level,
        scale,
        slots,
    })
}

fn key_encoded_len(key: &RawSwitchingKey) -> usize {
    let digits = key.digits.iter();
    4 + digits
        .map(|d| poly_encoded_len(&d.b) + poly_encoded_len(&d.a))
        .sum::<usize>()
}

fn put_key(buf: &mut impl BufMut, key: &RawSwitchingKey) {
    buf.put_u32(key.digits.len() as u32);
    for d in &key.digits {
        put_poly(buf, &d.b);
        put_poly(buf, &d.a);
    }
}

pub(crate) fn get_key(buf: &mut &[u8]) -> Result<RawSwitchingKey, ClientError> {
    need(buf, 4, "key header")?;
    let dnum = buf.get_u32() as usize;
    let mut digits = Vec::with_capacity(dnum);
    for _ in 0..dnum {
        let b = get_poly(buf)?;
        let a = get_poly(buf)?;
        digits.push(RawKeyDigit { b, a });
    }
    Ok(RawSwitchingKey { digits })
}

fn opt_key_encoded_len(key: Option<&RawSwitchingKey>) -> usize {
    1 + key.map_or(0, key_encoded_len)
}

fn put_opt_key(buf: &mut impl BufMut, key: Option<&RawSwitchingKey>) {
    match key {
        None => buf.put_u8(0),
        Some(k) => {
            buf.put_u8(1);
            put_key(buf, k);
        }
    }
}

pub(crate) fn get_opt_key(buf: &mut &[u8]) -> Result<Option<RawSwitchingKey>, ClientError> {
    need(buf, 1, "key presence tag")?;
    match buf.get_u8() {
        0 => Ok(None),
        1 => Ok(Some(get_key(buf)?)),
        t => Err(ClientError::Serialization(format!(
            "invalid key presence tag {t}"
        ))),
    }
}

/// The evaluation-key block a session frame and a key-set record share:
/// relin key, `(shift, key)` rotations, conjugation key.
pub(crate) fn key_set_encoded_len(
    relin: Option<&RawSwitchingKey>,
    rotations: &[(i32, RawSwitchingKey)],
    conjugation: Option<&RawSwitchingKey>,
) -> usize {
    let rotations = rotations.iter().map(|(_, key)| 4 + key_encoded_len(key));
    opt_key_encoded_len(relin) + 4 + rotations.sum::<usize>() + opt_key_encoded_len(conjugation)
}

pub(crate) fn put_key_set(
    buf: &mut impl BufMut,
    relin: Option<&RawSwitchingKey>,
    rotations: &[(i32, RawSwitchingKey)],
    conjugation: Option<&RawSwitchingKey>,
) {
    put_opt_key(buf, relin);
    buf.put_u32(rotations.len() as u32);
    for (shift, key) in rotations {
        buf.put_u32(*shift as u32);
        put_key(buf, key);
    }
    put_opt_key(buf, conjugation);
}

fn put_ciphertext(buf: &mut impl BufMut, ct: &RawCiphertext) {
    buf.put_u64_le(ct.encoded_len() as u64);
    ct.write_into(buf);
}

fn get_ciphertext(buf: &mut &[u8]) -> Result<RawCiphertext, ClientError> {
    need(buf, 8, "ciphertext frame header")?;
    let len = buf.get_u64_le() as usize;
    need(buf, len, "ciphertext frame body")?;
    let (head, rest) = buf.split_at(len);
    let ct = RawCiphertext::from_bytes(head)?;
    *buf = rest;
    Ok(ct)
}

fn op_encoded_len(op: &ProgramOp) -> usize {
    match op {
        ProgramOp::Square { .. } | ProgramOp::Negate { .. } | ProgramOp::Conjugate { .. } => 5,
        ProgramOp::Add { .. }
        | ProgramOp::Sub { .. }
        | ProgramOp::Mul { .. }
        | ProgramOp::Rotate { .. }
        | ProgramOp::MulPlain { .. } => 9,
        ProgramOp::AddScalar { .. } | ProgramOp::MulScalar { .. } | ProgramOp::MulInt { .. } => 13,
    }
}

fn put_op(buf: &mut impl BufMut, op: &ProgramOp) {
    match *op {
        ProgramOp::Add { a, b } => {
            buf.put_u8(0);
            buf.put_u32(a);
            buf.put_u32(b);
        }
        ProgramOp::Sub { a, b } => {
            buf.put_u8(1);
            buf.put_u32(a);
            buf.put_u32(b);
        }
        ProgramOp::Mul { a, b } => {
            buf.put_u8(2);
            buf.put_u32(a);
            buf.put_u32(b);
        }
        ProgramOp::Square { a } => {
            buf.put_u8(3);
            buf.put_u32(a);
        }
        ProgramOp::Negate { a } => {
            buf.put_u8(4);
            buf.put_u32(a);
        }
        ProgramOp::AddScalar { a, c } => {
            buf.put_u8(5);
            buf.put_u32(a);
            buf.put_f64(c);
        }
        ProgramOp::MulScalar { a, c } => {
            buf.put_u8(6);
            buf.put_u32(a);
            buf.put_f64(c);
        }
        ProgramOp::MulInt { a, k } => {
            buf.put_u8(7);
            buf.put_u32(a);
            buf.put_u64_le(k as u64);
        }
        ProgramOp::Rotate { a, k } => {
            buf.put_u8(8);
            buf.put_u32(a);
            buf.put_u32(k as u32);
        }
        ProgramOp::Conjugate { a } => {
            buf.put_u8(9);
            buf.put_u32(a);
        }
        ProgramOp::MulPlain { a, plain } => {
            buf.put_u8(10);
            buf.put_u32(a);
            buf.put_u32(plain);
        }
    }
}

fn get_op(buf: &mut &[u8]) -> Result<ProgramOp, ClientError> {
    need(buf, 5, "program op")?;
    let tag = buf.get_u8();
    let a = buf.get_u32();
    Ok(match tag {
        0 => {
            need(buf, 4, "op operand")?;
            ProgramOp::Add {
                a,
                b: buf.get_u32(),
            }
        }
        1 => {
            need(buf, 4, "op operand")?;
            ProgramOp::Sub {
                a,
                b: buf.get_u32(),
            }
        }
        2 => {
            need(buf, 4, "op operand")?;
            ProgramOp::Mul {
                a,
                b: buf.get_u32(),
            }
        }
        3 => ProgramOp::Square { a },
        4 => ProgramOp::Negate { a },
        5 => {
            need(buf, 8, "op operand")?;
            ProgramOp::AddScalar {
                a,
                c: buf.get_f64(),
            }
        }
        6 => {
            need(buf, 8, "op operand")?;
            ProgramOp::MulScalar {
                a,
                c: buf.get_f64(),
            }
        }
        7 => {
            need(buf, 8, "op operand")?;
            ProgramOp::MulInt {
                a,
                k: buf.get_u64_le() as i64,
            }
        }
        8 => {
            need(buf, 4, "op operand")?;
            ProgramOp::Rotate {
                a,
                k: buf.get_u32() as i32,
            }
        }
        9 => ProgramOp::Conjugate { a },
        10 => {
            need(buf, 4, "op operand")?;
            ProgramOp::MulPlain {
                a,
                plain: buf.get_u32(),
            }
        }
        t => {
            return Err(ClientError::Serialization(format!(
                "invalid program op tag {t}"
            )))
        }
    })
}

impl OpProgram {
    fn encoded_len(&self) -> usize {
        12 + self.ops.iter().map(op_encoded_len).sum::<usize>() + 4 * self.outputs.len()
    }

    fn put(&self, buf: &mut impl BufMut) {
        buf.put_u32(self.inputs);
        buf.put_u32(self.ops.len() as u32);
        for op in &self.ops {
            put_op(buf, op);
        }
        buf.put_u32(self.outputs.len() as u32);
        for &r in &self.outputs {
            buf.put_u32(r);
        }
    }

    fn get(buf: &mut &[u8]) -> Result<Self, ClientError> {
        need(buf, 8, "program header")?;
        let inputs = buf.get_u32();
        let num_ops = buf.get_u32() as usize;
        let mut ops = Vec::with_capacity(num_ops.min(1 << 16));
        for _ in 0..num_ops {
            ops.push(get_op(buf)?);
        }
        need(buf, 4, "program outputs")?;
        let num_out = buf.get_u32() as usize;
        need(buf, num_out.saturating_mul(4), "program outputs")?;
        let mut outputs = Vec::with_capacity(num_out.min(1 << 16));
        for _ in 0..num_out {
            outputs.push(buf.get_u32());
        }
        Ok(Self {
            inputs,
            ops,
            outputs,
        })
    }
}

impl SessionUpload<'_> {
    /// Length of the session frame, from the limb counts alone — no
    /// coefficient is touched.
    pub fn encoded_len(&self) -> usize {
        let plaintexts = self.plaintexts.iter().map(plaintext_encoded_len);
        12 + key_set_encoded_len(self.relin, self.rotations, self.conjugation)
            + 4
            + plaintexts.sum::<usize>()
    }

    /// Appends the session frame ([`SessionRequest::to_bytes`]' bytes) to
    /// `buf`.
    pub fn write_into(&self, buf: &mut impl BufMut) {
        buf.put_u32(SESSION_MAGIC);
        buf.put_u64_le(self.params_hash);
        put_key_set(buf, self.relin, self.rotations, self.conjugation);
        buf.put_u32(self.plaintexts.len() as u32);
        for pt in self.plaintexts {
            put_plaintext(buf, pt);
        }
    }
}

impl SessionRequest {
    /// This upload, borrowed — the form every encoder takes.
    pub fn as_upload(&self) -> SessionUpload<'_> {
        SessionUpload {
            params_hash: self.params_hash,
            relin: self.relin.as_ref(),
            rotations: &self.rotations,
            conjugation: self.conjugation.as_ref(),
            plaintexts: &self.plaintexts,
        }
    }

    /// Length of the [`Self::to_bytes`] frame
    /// ([`SessionUpload::encoded_len`]).
    pub fn encoded_len(&self) -> usize {
        self.as_upload().encoded_len()
    }

    /// Serializes into a compact binary frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let upload = self.as_upload();
        let mut buf = Vec::with_capacity(upload.encoded_len());
        upload.write_into(&mut buf);
        buf
    }

    /// Deserializes a frame produced by [`Self::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Serialization`] describing the corruption.
    pub fn from_bytes(mut data: &[u8]) -> Result<Self, ClientError> {
        let buf = &mut data;
        need(buf, 12, "session request header")?;
        if buf.get_u32() != SESSION_MAGIC {
            return Err(ClientError::Serialization("bad session magic".into()));
        }
        let params_hash = buf.get_u64_le();
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
        need(buf, 4, "plaintext count")?;
        let num_pt = buf.get_u32() as usize;
        let mut plaintexts = Vec::with_capacity(num_pt.min(1 << 12));
        for _ in 0..num_pt {
            plaintexts.push(get_plaintext(buf)?);
        }
        Ok(Self {
            params_hash,
            relin,
            rotations,
            conjugation,
            plaintexts,
        })
    }
}

impl EvalRequest {
    /// Length of the [`Self::to_bytes`] frame, from the limb counts alone.
    pub fn encoded_len(&self) -> usize {
        let inputs = self.inputs.iter();
        16 + inputs.map(|ct| 8 + ct.encoded_len()).sum::<usize>() + self.program.encoded_len()
    }

    /// Serializes into a compact binary frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        buf.put_u32(EVAL_MAGIC);
        buf.put_u64_le(self.session_id);
        buf.put_u32(self.inputs.len() as u32);
        for ct in &self.inputs {
            put_ciphertext(&mut buf, ct);
        }
        self.program.put(&mut buf);
        buf
    }

    /// Deserializes a frame produced by [`Self::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Serialization`] describing the corruption.
    pub fn from_bytes(mut data: &[u8]) -> Result<Self, ClientError> {
        let buf = &mut data;
        need(buf, 16, "eval request header")?;
        if buf.get_u32() != EVAL_MAGIC {
            return Err(ClientError::Serialization("bad request magic".into()));
        }
        let session_id = buf.get_u64_le();
        let num_in = buf.get_u32() as usize;
        let mut inputs = Vec::with_capacity(num_in.min(1 << 12));
        for _ in 0..num_in {
            inputs.push(get_ciphertext(buf)?);
        }
        let program = OpProgram::get(buf)?;
        Ok(Self {
            session_id,
            inputs,
            program,
        })
    }
}

impl EvalResponse {
    /// A successful response.
    pub fn ok(outputs: Vec<RawCiphertext>) -> Self {
        Self {
            outputs,
            error: None,
        }
    }

    /// A failed response carrying a description.
    pub fn failed(msg: impl Into<String>) -> Self {
        Self {
            outputs: Vec::new(),
            error: Some(msg.into()),
        }
    }

    /// Length of the [`Self::to_bytes`] frame, from the limb counts alone.
    pub fn encoded_len(&self) -> usize {
        let outputs = self.outputs.iter();
        5 + self.error.as_ref().map_or(0, |msg| 4 + msg.len())
            + 4
            + outputs.map(|ct| 8 + ct.encoded_len()).sum::<usize>()
    }

    /// Serializes into a compact binary frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        buf.put_u32(RESP_MAGIC);
        match &self.error {
            None => buf.put_u8(0),
            Some(msg) => {
                buf.put_u8(1);
                put_string(&mut buf, msg);
            }
        }
        buf.put_u32(self.outputs.len() as u32);
        for ct in &self.outputs {
            put_ciphertext(&mut buf, ct);
        }
        buf
    }

    /// Deserializes a frame produced by [`Self::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Serialization`] describing the corruption.
    pub fn from_bytes(mut data: &[u8]) -> Result<Self, ClientError> {
        let buf = &mut data;
        need(buf, 5, "response header")?;
        if buf.get_u32() != RESP_MAGIC {
            return Err(ClientError::Serialization("bad response magic".into()));
        }
        let error = match buf.get_u8() {
            0 => None,
            1 => Some(get_string(buf)?),
            t => {
                return Err(ClientError::Serialization(format!(
                    "invalid response status tag {t}"
                )))
            }
        };
        need(buf, 4, "output count")?;
        let num_out = buf.get_u32() as usize;
        let mut outputs = Vec::with_capacity(num_out.min(1 << 12));
        for _ in 0..num_out {
            outputs.push(get_ciphertext(buf)?);
        }
        Ok(Self { outputs, error })
    }
}

// ---------------------------------------------------------------------------
// Socket framing
// ---------------------------------------------------------------------------

/// Magic prefix of every socket frame (distinct from the payload magics, so
/// a payload accidentally fed as a frame fails immediately).
const FRAME_MAGIC: u32 = 0xF1DE_F4A3;

/// Frame header size: magic (4) + kind (1) + seq (8) + length prefix (4).
pub const FRAME_HEADER_LEN: usize = 17;

/// Default upper bound on a frame's declared payload length. Large enough
/// for a paper-scale keygen upload (tens of MB of switching keys), small
/// enough that a hostile length prefix can never balloon the read buffer.
pub const MAX_FRAME_LEN: usize = 1 << 28;

/// What a socket frame carries. The framing layer is payload-agnostic:
/// each kind names which `to_bytes`/`from_bytes` codec applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: a [`SessionRequest`] keygen upload.
    OpenSession,
    /// Server → client: the session id (payload: `u64` LE) for an
    /// `OpenSession` frame.
    SessionOpened,
    /// Client → server: an [`EvalRequest`].
    Eval,
    /// Server → client: the [`EvalResponse`] for an `Eval` frame.
    EvalDone,
    /// Server → client: the request was not admitted (payload:
    /// [`Reject`]). After a `Malformed` reject the server closes the
    /// connection — framing sync is lost.
    Reject,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::OpenSession => 1,
            FrameKind::SessionOpened => 2,
            FrameKind::Eval => 3,
            FrameKind::EvalDone => 4,
            FrameKind::Reject => 5,
        }
    }

    fn from_u8(tag: u8) -> Result<Self, ClientError> {
        Ok(match tag {
            1 => FrameKind::OpenSession,
            2 => FrameKind::SessionOpened,
            3 => FrameKind::Eval,
            4 => FrameKind::EvalDone,
            5 => FrameKind::Reject,
            t => {
                return Err(ClientError::Serialization(format!(
                    "invalid frame kind {t}"
                )))
            }
        })
    }
}

/// One length-prefixed socket frame:
/// `[u32 magic BE][u8 kind][u64 seq LE][u32 len BE][payload]`.
///
/// `seq` correlates responses with requests on a pipelined connection —
/// the server echoes the request's seq on its `EvalDone`/`Reject`, so
/// responses may complete out of order (different batch ticks) without
/// losing correlation.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Payload discriminator.
    pub kind: FrameKind,
    /// Request/response correlation id (client-assigned, server-echoed).
    pub seq: u64,
    /// The payload bytes (codec per [`FrameKind`]).
    pub payload: Vec<u8>,
}

impl Frame {
    /// Wraps a payload in a frame.
    pub fn new(kind: FrameKind, seq: u64, payload: Vec<u8>) -> Self {
        Self { kind, seq, payload }
    }

    /// Serializes the frame for the socket.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + self.payload.len());
        buf.put_u32(FRAME_MAGIC);
        buf.put_u8(self.kind.to_u8());
        buf.put_u64_le(self.seq);
        buf.put_u32(self.payload.len() as u32);
        buf.extend_from_slice(&self.payload);
        buf
    }
}

/// Incremental frame decoder for a byte stream.
///
/// Feed it whatever chunks the socket yields; [`FrameDecoder::next_frame`]
/// returns one complete frame at a time (`Ok(None)` = need more bytes).
/// Errors are **fatal for the stream**: a bad magic, kind, or an oversized
/// length prefix means framing sync is lost (or the peer is hostile), and
/// the connection must be closed. Truncation is *not* an error — an
/// incomplete frame simply stays pending, and idle-connection policy (not
/// the decoder) decides when to give up on it.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    max_len: usize,
}

impl FrameDecoder {
    /// A decoder with the default [`MAX_FRAME_LEN`] bound.
    pub fn new() -> Self {
        Self::with_max_len(MAX_FRAME_LEN)
    }

    /// A decoder rejecting frames whose declared payload exceeds
    /// `max_len`.
    pub fn with_max_len(max_len: usize) -> Self {
        Self {
            buf: Vec::new(),
            max_len,
        }
    }

    /// Appends raw stream bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete frame, if the buffer holds one.
    ///
    /// # Errors
    ///
    /// [`ClientError::Serialization`] on a bad magic or kind,
    /// [`ClientError::FrameTooLarge`] on an oversized length prefix — both
    /// mean the stream must be closed.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ClientError> {
        if self.buf.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let mut head = &self.buf[..FRAME_HEADER_LEN];
        if head.get_u32() != FRAME_MAGIC {
            return Err(ClientError::Serialization("bad frame magic".into()));
        }
        let kind = FrameKind::from_u8(head.get_u8())?;
        let seq = head.get_u64_le();
        let len = head.get_u32() as usize;
        if len > self.max_len {
            return Err(ClientError::FrameTooLarge {
                len: len as u64,
                max: self.max_len as u64,
            });
        }
        if self.buf.len() < FRAME_HEADER_LEN + len {
            return Ok(None);
        }
        let payload = self.buf[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len].to_vec();
        self.buf.drain(..FRAME_HEADER_LEN + len);
        Ok(Some(Frame { kind, seq, payload }))
    }
}

/// Why a request was rejected at the network front.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectCode {
    /// The admission queue is full; retry after `retry_after_ticks`.
    Overloaded,
    /// The frame or its payload failed to parse; the server closes the
    /// connection after sending this (framing sync is lost).
    Malformed,
    /// The request was understood but refused (foreign parameter chain,
    /// failed key load).
    Refused,
}

impl RejectCode {
    fn to_u8(self) -> u8 {
        match self {
            RejectCode::Overloaded => 1,
            RejectCode::Malformed => 2,
            RejectCode::Refused => 3,
        }
    }

    fn from_u8(tag: u8) -> Result<Self, ClientError> {
        Ok(match tag {
            1 => RejectCode::Overloaded,
            2 => RejectCode::Malformed,
            3 => RejectCode::Refused,
            t => {
                return Err(ClientError::Serialization(format!(
                    "invalid reject code {t}"
                )))
            }
        })
    }
}

/// Payload of a [`FrameKind::Reject`] frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Reject {
    /// Why the request was rejected.
    pub code: RejectCode,
    /// For [`RejectCode::Overloaded`]: the server's estimate of how many
    /// batch ticks must drain before a retry can be admitted (0 for the
    /// other codes). A tick's wall duration is deployment-specific; the
    /// estimate is `ceil(queued / batch_size)` at shed time.
    pub retry_after_ticks: u64,
    /// Human-readable detail.
    pub message: String,
}

impl Reject {
    /// Serializes into a reject-frame payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u8(self.code.to_u8());
        buf.put_u64_le(self.retry_after_ticks);
        put_string(&mut buf, &self.message);
        buf
    }

    /// Deserializes a reject-frame payload.
    ///
    /// # Errors
    ///
    /// [`ClientError::Serialization`] describing the corruption.
    pub fn from_bytes(mut data: &[u8]) -> Result<Self, ClientError> {
        let buf = &mut data;
        need(buf, 9, "reject header")?;
        let code = RejectCode::from_u8(buf.get_u8())?;
        let retry_after_ticks = buf.get_u64_le();
        let message = get_string(buf)?;
        Ok(Self {
            code,
            retry_after_ticks,
            message,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::{Domain, RawPoly};

    fn sample_ct() -> RawCiphertext {
        RawCiphertext {
            c0: RawPoly {
                limbs: vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]],
                domain: Domain::Eval,
            },
            c1: RawPoly {
                limbs: vec![vec![9, 10, 11, 12], vec![13, 14, 15, 16]],
                domain: Domain::Eval,
            },
            level: 1,
            scale: 2f64.powi(40),
            slots: 2,
            noise_log2: 10.5,
        }
    }

    fn sample_key() -> RawSwitchingKey {
        RawSwitchingKey {
            digits: vec![RawKeyDigit {
                b: RawPoly::zero(4, 3, Domain::Eval),
                a: RawPoly::zero(4, 3, Domain::Eval),
            }],
        }
    }

    fn sample_program() -> OpProgram {
        let mut p = OpProgram::new(2);
        let s = p.push(ProgramOp::Add { a: 0, b: 1 });
        let sq = p.push(ProgramOp::Square { a: s });
        let t = p.push(ProgramOp::MulScalar { a: sq, c: 0.25 });
        let r = p.push(ProgramOp::Rotate { a: t, k: -1 });
        let m = p.push(ProgramOp::MulPlain { a: r, plain: 0 });
        p.output(m);
        p
    }

    #[test]
    fn fingerprint_distinguishes_parameter_sets() {
        let a = RawParams::generate(10, 3, 40, 50, 2);
        let b = RawParams::generate(10, 4, 40, 50, 2);
        assert_eq!(params_fingerprint(&a), params_fingerprint(&a));
        assert_ne!(params_fingerprint(&a), params_fingerprint(&b));
    }

    #[test]
    fn program_validation() {
        let p = sample_program();
        assert!(p.validate(1).is_ok());
        assert!(
            matches!(p.validate(0), Err(ClientError::BadProgram(_))),
            "missing plain slot"
        );
        let mut bad = OpProgram::new(1);
        bad.push(ProgramOp::Add { a: 0, b: 1 });
        bad.output(1);
        assert!(
            matches!(bad.validate(0), Err(ClientError::BadProgram(_))),
            "forward reference"
        );
        let mut no_out = OpProgram::new(1);
        no_out.push(ProgramOp::Negate { a: 0 });
        assert!(
            matches!(no_out.validate(0), Err(ClientError::BadProgram(_))),
            "no outputs"
        );
        let mut bad_out = OpProgram::new(1);
        bad_out.push(ProgramOp::Negate { a: 0 });
        bad_out.output(7);
        assert!(
            matches!(bad_out.validate(0), Err(ClientError::BadProgram(_))),
            "output range"
        );
        for c in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for op in [
                ProgramOp::AddScalar { a: 0, c },
                ProgramOp::MulScalar { a: 0, c },
            ] {
                let mut scalar = OpProgram::new(1);
                let r = scalar.push(op);
                scalar.output(r);
                assert!(
                    matches!(scalar.validate(0), Err(ClientError::BadProgram(_))),
                    "non-finite scalar {op:?}"
                );
            }
        }
    }

    #[test]
    fn session_request_roundtrip() {
        let pt = RawPlaintext {
            poly: RawPoly::zero(4, 2, Domain::Coeff),
            level: 1,
            scale: 2f64.powi(40),
            slots: 2,
        };
        let req = SessionRequest {
            params_hash: 0xDEAD_BEEF_0123,
            relin: Some(sample_key()),
            rotations: vec![(1, sample_key()), (-2, sample_key())],
            conjugation: None,
            plaintexts: vec![pt],
        };
        let back = SessionRequest::from_bytes(&req.to_bytes()).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn eval_request_and_response_roundtrip() {
        let req = EvalRequest {
            session_id: 42,
            inputs: vec![sample_ct(), sample_ct()],
            program: sample_program(),
        };
        let back = EvalRequest::from_bytes(&req.to_bytes()).unwrap();
        assert_eq!(req, back);

        let resp = EvalResponse::ok(vec![sample_ct()]);
        assert_eq!(resp, EvalResponse::from_bytes(&resp.to_bytes()).unwrap());
        let failed = EvalResponse::failed("missing rotation key");
        let back = EvalResponse::from_bytes(&failed.to_bytes()).unwrap();
        assert_eq!(back.error.as_deref(), Some("missing rotation key"));
        assert!(back.outputs.is_empty());
    }

    #[test]
    fn corrupt_wire_frames_rejected() {
        let req = EvalRequest {
            session_id: 1,
            inputs: vec![sample_ct()],
            program: sample_program(),
        };
        let mut bytes = req.to_bytes();
        bytes[0] ^= 0xff;
        assert!(EvalRequest::from_bytes(&bytes).is_err(), "bad magic");
        let bytes = req.to_bytes();
        assert!(
            EvalRequest::from_bytes(&bytes[..bytes.len() - 3]).is_err(),
            "truncated"
        );
        assert!(SessionRequest::from_bytes(&[1, 2, 3]).is_err());
        assert!(EvalResponse::from_bytes(&[]).is_err());
    }

    #[test]
    fn frame_roundtrip_and_incremental_decode() {
        let frames = vec![
            Frame::new(FrameKind::OpenSession, 0, vec![1, 2, 3]),
            Frame::new(FrameKind::Eval, 7, vec![]),
            Frame::new(FrameKind::EvalDone, 7, vec![0xAA; 1000]),
        ];
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode());
        }
        // Feed in awkward chunk sizes; every frame must come out intact.
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for chunk in stream.chunks(13) {
            dec.feed(chunk);
            while let Some(f) = dec.next_frame().unwrap() {
                out.push(f);
            }
        }
        assert_eq!(out, frames);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn frame_decoder_rejects_corruption() {
        // Bad magic.
        let mut dec = FrameDecoder::new();
        dec.feed(&[0u8; FRAME_HEADER_LEN]);
        assert!(matches!(
            dec.next_frame(),
            Err(ClientError::Serialization(_))
        ));

        // Bad kind tag.
        let mut bytes = Frame::new(FrameKind::Eval, 1, vec![]).encode();
        bytes[4] = 99;
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert!(matches!(
            dec.next_frame(),
            Err(ClientError::Serialization(_))
        ));

        // Oversized length prefix is rejected from the header alone —
        // before any payload arrives or is buffered.
        let mut huge = Frame::new(FrameKind::Eval, 1, vec![]).encode();
        huge[13..17].copy_from_slice(&(u32::MAX).to_be_bytes());
        let mut dec = FrameDecoder::with_max_len(1 << 20);
        dec.feed(&huge);
        assert!(matches!(
            dec.next_frame(),
            Err(ClientError::FrameTooLarge { .. })
        ));

        // Truncation is pending, not an error.
        let whole = Frame::new(FrameKind::Eval, 2, vec![5; 64]).encode();
        let mut dec = FrameDecoder::new();
        dec.feed(&whole[..whole.len() - 1]);
        assert_eq!(dec.next_frame().unwrap(), None);
        dec.feed(&whole[whole.len() - 1..]);
        assert!(dec.next_frame().unwrap().is_some());
    }

    #[test]
    fn reject_payload_roundtrip() {
        let rej = Reject {
            code: RejectCode::Overloaded,
            retry_after_ticks: 3,
            message: "queue full".into(),
        };
        assert_eq!(rej, Reject::from_bytes(&rej.to_bytes()).unwrap());
        assert!(Reject::from_bytes(&[0xFF]).is_err());
    }
}
