//! Client-side session handles for the serving layer.
//!
//! A [`Session`] is the **thin-client view** of a [`CkksEngine`]: it speaks
//! the wire protocol of `fides_client::wire` — exporting the engine's
//! evaluation keys as a keygen upload, encrypting request operands, and
//! decrypting responses — without ever exposing the secret key to the
//! server side (paper §III-B: security rests entirely with the client).

use std::sync::Arc;

use fides_client::wire::{
    params_fingerprint, EvalRequest, EvalResponse, OpProgram, SessionRequest, SessionUpload,
};
use fides_client::RawPlaintext;
use fides_core::{FidesError, Result};

use crate::engine::CkksEngine;

/// The client half of an engine, packaged for a serving endpoint.
///
/// Cloning is cheap (the underlying session state is shared with the
/// engine).
///
/// ```
/// use fides_api::CkksEngine;
/// use fides_client::wire::{OpProgram, ProgramOp};
///
/// let engine = CkksEngine::builder().log_n(10).levels(3).seed(9).build()?;
/// let session = engine.session();
/// // Keygen upload: what the server must hold to serve this tenant.
/// let open = session.session_request(&[])?;
/// assert_eq!(open.params_hash, session.params_hash());
/// // An evaluation request: one input, squared.
/// let mut p = OpProgram::new(1);
/// let sq = p.push(ProgramOp::Square { a: 0 });
/// p.output(sq);
/// let req = session.eval_request(7, &[&[0.5, -0.25]], &p)?;
/// assert_eq!(req.session_id, 7);
/// assert_eq!(req.inputs.len(), 1);
/// # Ok::<(), fides_api::FidesError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Session {
    engine: CkksEngine,
}

impl Session {
    pub(crate) fn new(engine: CkksEngine) -> Self {
        Self { engine }
    }

    /// The parameter fingerprint a server will check this tenant against.
    pub fn params_hash(&self) -> u64 {
        params_fingerprint(self.engine.inner.client.params())
    }

    /// Builds the keygen upload for this session: the engine's
    /// relinearization, rotation and conjugation keys, plus `plains` —
    /// plaintext operands (values, level) the server should preload into
    /// its evaluation-domain cache (e.g. model weights), each encoded at
    /// the ladder-exact constant scale for its level.
    ///
    /// Values are padded to the next power of two — the engine's canonical
    /// packing, shared with [`Session::eval_request`] and
    /// [`CkksEngine::encrypt`](crate::CkksEngine::encrypt) — so a
    /// plaintext's packing matches request inputs of the same value count
    /// (a program's `MulPlain` requires matching slot packings).
    ///
    /// The secret key never leaves the engine.
    ///
    /// # Errors
    ///
    /// [`FidesError::NotEnoughLevels`] for a plaintext at level 0,
    /// [`FidesError::Client`] when plaintext values exceed the ring's slot
    /// capacity.
    pub fn session_request(&self, plains: &[(&[f64], usize)]) -> Result<SessionRequest> {
        let keys = &self.engine.inner.raw_keys;
        Ok(SessionRequest {
            params_hash: self.params_hash(),
            relin: keys.relin.clone(),
            rotations: keys.rotations.clone(),
            conjugation: keys.conj.clone(),
            plaintexts: self.encode_plains(plains)?,
        })
    }

    /// Encodes upload plaintexts at the ladder-exact constant scale for
    /// their levels.
    fn encode_plains(&self, plains: &[(&[f64], usize)]) -> Result<Vec<RawPlaintext>> {
        let inner = &self.engine.inner;
        let backend = inner.backend.as_ref();
        plains
            .iter()
            .map(|(values, level)| {
                let scale = fides_core::const_scale_for(backend, *level)?;
                inner.encode_padded_real(values, scale, *level)
            })
            .collect()
    }

    /// Encrypts `inputs` (each a value vector, padded to the engine's
    /// canonical next-power-of-two packing and encrypted at the top level)
    /// into an evaluation request carrying `program`.
    ///
    /// An input composes with a preloaded session plaintext (`MulPlain`)
    /// when both were built from the same value count — the shared padding
    /// policy then gives them identical slot packings.
    ///
    /// # Errors
    ///
    /// [`FidesError::Client`] when a value vector exceeds the slot
    /// capacity.
    pub fn eval_request(
        &self,
        session_id: u64,
        inputs: &[&[f64]],
        program: &OpProgram,
    ) -> Result<EvalRequest> {
        let inner = &self.engine.inner;
        let level = self.engine.max_level();
        let scale = inner.backend.standard_scale(level);
        let mut cts = Vec::with_capacity(inputs.len());
        for values in inputs {
            let pt = inner.encode_padded_real(values, scale, level)?;
            let raw = {
                let mut rng = inner.rng.lock().unwrap_or_else(|e| e.into_inner());
                inner.client.encrypt(&pt, &inner.pk, &mut *rng)?
            };
            cts.push(raw);
        }
        Ok(EvalRequest {
            session_id,
            inputs: cts,
            program: program.clone(),
        })
    }

    /// Decrypts a server response; `lens[i]` is the number of meaningful
    /// values in output `i` (decoded vectors are truncated to it; pass the
    /// ring's slot capacity to keep everything).
    ///
    /// # Errors
    ///
    /// [`FidesError::Client`] when the response carries a server error or
    /// `lens` doesn't match the output count; decryption errors otherwise.
    pub fn decrypt_response(
        &self,
        response: &EvalResponse,
        lens: &[usize],
    ) -> Result<Vec<Vec<f64>>> {
        if let Some(err) = &response.error {
            return Err(FidesError::Client(format!(
                "server rejected request: {err}"
            )));
        }
        if lens.len() != response.outputs.len() {
            return Err(FidesError::Client(format!(
                "response carries {} outputs but {} lengths were supplied",
                response.outputs.len(),
                lens.len()
            )));
        }
        let inner = &self.engine.inner;
        response
            .outputs
            .iter()
            .zip(lens)
            .map(|(raw, &len)| {
                let pt = inner.client.decrypt(raw, &inner.sk)?;
                let mut vals = inner.client.decode_real(&pt)?;
                vals.truncate(len);
                Ok(vals)
            })
            .collect()
    }

    /// Encrypts one request per entry of `batches` and pipelines the whole
    /// burst over `client` with
    /// [`NetClient::eval_pipelined`](fides_client::net::NetClient::eval_pipelined),
    /// so later requests don't wait for earlier batch ticks.
    ///
    /// Returns one result per batch, in order. Per-request rejections
    /// (e.g. a load-shed tail under overload — see
    /// [`ClientError::Overloaded`](fides_client::ClientError::Overloaded))
    /// come back as `Err` entries without failing the burst.
    ///
    /// # Errors
    ///
    /// An outer `Err` means encryption failed or the connection itself
    /// broke.
    #[allow(clippy::type_complexity)]
    pub fn eval_many(
        &self,
        client: &mut fides_client::net::NetClient,
        session_id: u64,
        batches: &[&[&[f64]]],
        program: &OpProgram,
    ) -> Result<Vec<std::result::Result<EvalResponse, fides_client::ClientError>>> {
        let mut reqs = Vec::with_capacity(batches.len());
        for inputs in batches {
            reqs.push(self.eval_request(session_id, inputs, program)?);
        }
        client
            .eval_pipelined(&reqs)
            .map_err(|e| FidesError::Client(format!("pipelined eval failed: {e}")))
    }

    /// Writes this session's key material as a versioned persist stream
    /// (`fides_client::persist`): a params record followed by a session
    /// record carrying the same keygen upload
    /// [`Session::session_request`] would send. A tenant that exported
    /// its keys can re-attach to a restarted server without regenerating
    /// them — [`Session::import_keys`] reads the stream back into a
    /// [`SessionRequest`] for `open_session`. The secret key never
    /// appears in the stream. The keys are encoded in place, from the
    /// engine's own copies, straight into `w` (wrap a file in a
    /// `BufWriter`).
    ///
    /// # Errors
    ///
    /// As [`Session::session_request`] for `plains`;
    /// [`FidesError::Client`] when the sink fails.
    pub fn export_keys<W: std::io::Write>(&self, w: W, plains: &[(&[f64], usize)]) -> Result<()> {
        use fides_client::persist::{kind, ParamsRecord, RecordWriter, SessionRecordRef};
        let keys = &self.engine.inner.raw_keys;
        let plaintexts = self.encode_plains(plains)?;
        let params_hash = self.params_hash();
        let rec = SessionRecordRef {
            id: 0,
            device: 0,
            weight: 1,
            upload: SessionUpload {
                params_hash,
                relin: keys.relin.as_ref(),
                rotations: &keys.rotations,
                conjugation: keys.conj.as_ref(),
                plaintexts: &plaintexts,
            },
        };
        let to_client = |e: fides_client::ClientError| FidesError::Client(e.to_string());
        let mut writer = RecordWriter::new(w).map_err(to_client)?;
        writer
            .record(kind::PARAMS, &ParamsRecord { params_hash }.encode())
            .map_err(to_client)?;
        writer
            .record_with(kind::SESSION, rec.encoded_len(), |out| rec.write_into(out))
            .map_err(to_client)?;
        writer.finish().map_err(to_client)?;
        Ok(())
    }

    /// Reads a [`Session::export_keys`] stream back into the keygen
    /// upload it carried, validating the stream's params record against
    /// the upload's own fingerprint. The result feeds straight into a
    /// server's `open_session`.
    ///
    /// # Errors
    ///
    /// [`FidesError::Client`] for truncation, corruption, a format
    /// version this build does not read, a missing or mismatched params
    /// record, or a stream without a session record.
    pub fn import_keys<R: std::io::Read>(r: R) -> Result<SessionRequest> {
        use fides_client::persist::{kind, ParamsRecord, RecordReader, SessionRecord};
        let to_client = |e: fides_client::ClientError| FidesError::Client(e.to_string());
        let mut reader = RecordReader::new(r).map_err(to_client)?;
        let mut params: Option<ParamsRecord> = None;
        let mut upload: Option<SessionRequest> = None;
        while let Some(rec) = reader.read_record().map_err(to_client)? {
            match rec.kind {
                kind::PARAMS => {
                    params = Some(ParamsRecord::decode(rec.payload).map_err(to_client)?);
                }
                kind::SESSION => {
                    let sess = SessionRecord::decode(rec.payload).map_err(to_client)?;
                    upload = Some(sess.upload);
                }
                other => {
                    return Err(FidesError::Client(format!(
                        "unexpected record kind {other} in a key export"
                    )))
                }
            }
        }
        let upload = upload
            .ok_or_else(|| FidesError::Client("key export carries no session record".into()))?;
        match params {
            Some(p) if p.params_hash == upload.params_hash => Ok(upload),
            Some(p) => Err(FidesError::Client(format!(
                "key export params fingerprint {:#018x} does not match its upload's {:#018x}",
                p.params_hash, upload.params_hash
            ))),
            None => Err(FidesError::Client(
                "key export carries no params record".into(),
            )),
        }
    }

    /// The engine this session fronts.
    pub fn engine(&self) -> &CkksEngine {
        &self.engine
    }
}

// The serving layer shares engines and sessions across request threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CkksEngine>();
    assert_send_sync::<Session>();
    assert_send_sync::<Arc<fides_core::CkksContext>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use fides_client::wire::ProgramOp;

    #[test]
    fn session_request_carries_engine_keys() {
        let e = CkksEngine::builder()
            .log_n(10)
            .levels(3)
            .rotations(&[1, -2])
            .conjugation()
            .seed(3)
            .build()
            .unwrap();
        let s = e.session();
        let req = s.session_request(&[(&[1.0, 2.0][..], 2)]).unwrap();
        assert!(req.relin.is_some());
        assert_eq!(req.rotations.len(), 2);
        assert!(req.conjugation.is_some());
        assert_eq!(req.plaintexts.len(), 1);
        assert_eq!(req.plaintexts[0].level, 2);
        // Round-trips through the wire form.
        let back = SessionRequest::from_bytes(&req.to_bytes()).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn eval_program_matches_handle_circuit() {
        let e = CkksEngine::builder()
            .log_n(10)
            .levels(4)
            .seed(8)
            .build()
            .unwrap();
        let x = e.encrypt(&[0.5, -0.25, 0.125]).unwrap();
        let y = e.encrypt(&[0.1, 0.2, 0.3]).unwrap();

        // Handle circuit: (x * y + x) * 0.5
        let by_handles = (&x * &y + &x) * 0.5;

        let mut p = OpProgram::new(2);
        let m = p.push(ProgramOp::Mul { a: 0, b: 1 });
        let s = p.push(ProgramOp::Add { a: m, b: 0 });
        let h = p.push(ProgramOp::MulScalar { a: s, c: 0.5 });
        p.output(h);
        let by_program = e.eval_program(&[x.clone(), y.clone()], &[], &p).unwrap();

        let a = by_handles.to_raw().unwrap().to_bytes();
        let b = by_program[0].to_raw().unwrap().to_bytes();
        assert_eq!(a, b, "program execution must be bit-identical to handles");
    }

    #[test]
    fn preload_plain_feeds_mul_plain() {
        let e = CkksEngine::builder()
            .log_n(10)
            .levels(3)
            .seed(2)
            .build()
            .unwrap();
        let x = e.encrypt(&[1.0, 2.0, 4.0]).unwrap();
        let w = e.preload_plain(&[0.5, 0.5, 0.5], e.max_level()).unwrap();
        let mut p = OpProgram::new(1);
        let m = p.push(ProgramOp::MulPlain { a: 0, plain: 0 });
        p.output(m);
        let out = e.eval_program(&[x], &[w], &p).unwrap();
        let got = e.decrypt(&out[0]).unwrap();
        for (g, want) in got.iter().zip([0.5, 1.0, 2.0]) {
            assert!((g - want).abs() < 1e-4, "{g} vs {want}");
        }
    }

    #[test]
    fn mul_plain_packing_mismatch_is_typed_error() {
        // 3 values pack 4 slots; 5 values pack 8 — multiplying across
        // packings must fail typed, never decode to garbage.
        let e = CkksEngine::builder()
            .log_n(10)
            .levels(3)
            .seed(6)
            .build()
            .unwrap();
        let x = e.encrypt(&[1.0, 2.0, 4.0]).unwrap();
        let w = e.preload_plain(&[0.5; 5], e.max_level()).unwrap();
        let mut p = OpProgram::new(1);
        let m = p.push(ProgramOp::MulPlain { a: 0, plain: 0 });
        p.output(m);
        assert!(matches!(
            e.eval_program(&[x], &[w], &p),
            Err(FidesError::SlotMismatch { left: 4, right: 8 })
        ));
    }

    #[test]
    fn key_export_roundtrips_and_rejects_corruption() {
        let e = CkksEngine::builder()
            .log_n(10)
            .levels(3)
            .rotations(&[1])
            .seed(4)
            .build()
            .unwrap();
        let s = e.session();
        let mut buf = Vec::new();
        s.export_keys(&mut buf, &[(&[1.0, 2.0][..], 2)]).unwrap();
        let back = Session::import_keys(&buf[..]).unwrap();
        assert_eq!(back, s.session_request(&[(&[1.0, 2.0][..], 2)]).unwrap());
        // A flipped payload bit fails the record CRC, typed.
        let mut corrupt = buf.clone();
        corrupt[40] ^= 0x01;
        assert!(matches!(
            Session::import_keys(&corrupt[..]),
            Err(FidesError::Client(_))
        ));
        // Truncation is typed, never a panic.
        assert!(matches!(
            Session::import_keys(&buf[..buf.len() - 5]),
            Err(FidesError::Client(_))
        ));
    }

    #[test]
    fn bad_response_is_typed_error() {
        let e = CkksEngine::builder()
            .log_n(10)
            .levels(2)
            .seed(1)
            .build()
            .unwrap();
        let s = e.session();
        let failed = EvalResponse::failed("missing rotation key");
        assert!(matches!(
            s.decrypt_response(&failed, &[]),
            Err(FidesError::Client(_))
        ));
        let empty = EvalResponse::ok(vec![]);
        assert!(s.decrypt_response(&empty, &[]).unwrap().is_empty());
        assert!(s.decrypt_response(&empty, &[4]).is_err(), "arity mismatch");
    }
}
