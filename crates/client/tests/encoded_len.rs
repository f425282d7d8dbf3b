//! `encoded_len()` is arithmetic over limb counts; `to_bytes()` / `encode()`
//! is the encoder. They must agree for every shape, because the persist
//! writer declares a record's length *before* streaming its payload
//! (`RecordWriter::record_with`) and the server prices a key upload by it
//! without serializing anything.

use fides_client::persist::{kind, KeySetRecord, RecordReader, RecordWriter, SessionRecord};
use fides_client::wire::{EvalRequest, EvalResponse, OpProgram, ProgramOp, SessionRequest};
use fides_client::{Domain, RawCiphertext, RawKeyDigit, RawPlaintext, RawPoly, RawSwitchingKey};
use proptest::prelude::*;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// 0..=3 limbs of 0, 4, 8 or 16 coefficients; one draw in eight is ragged
/// (the header's `n` is the first limb's, the body is every limb's).
fn gen_poly(s: &mut u64) -> RawPoly {
    let limbs = (xorshift(s) % 4) as usize;
    let n = [0usize, 4, 8, 16][(xorshift(s) % 4) as usize];
    let ragged = xorshift(s) % 8 == 0;
    RawPoly {
        limbs: (0..limbs)
            .map(|i| {
                let len = if ragged { n + i } else { n };
                (0..len).map(|_| xorshift(s)).collect()
            })
            .collect(),
        domain: if xorshift(s) % 2 == 0 {
            Domain::Eval
        } else {
            Domain::Coeff
        },
    }
}

fn gen_key(s: &mut u64) -> RawSwitchingKey {
    RawSwitchingKey {
        digits: (0..xorshift(s) % 4)
            .map(|_| RawKeyDigit {
                b: gen_poly(s),
                a: gen_poly(s),
            })
            .collect(),
    }
}

fn gen_plaintext(s: &mut u64) -> RawPlaintext {
    RawPlaintext {
        poly: gen_poly(s),
        level: (xorshift(s) % 4) as usize,
        scale: 2f64.powi(30 + (xorshift(s) % 21) as i32),
        slots: 1 << (xorshift(s) % 5),
    }
}

fn gen_upload(s: &mut u64, rotations: usize, plaintexts: usize) -> SessionRequest {
    SessionRequest {
        params_hash: xorshift(s),
        relin: (xorshift(s) % 2 == 0).then(|| gen_key(s)),
        rotations: (0..rotations)
            .map(|_| (xorshift(s) as i32 % 64, gen_key(s)))
            .collect(),
        conjugation: (xorshift(s) % 2 == 0).then(|| gen_key(s)),
        plaintexts: (0..plaintexts).map(|_| gen_plaintext(s)).collect(),
    }
}

fn gen_ciphertext(s: &mut u64) -> RawCiphertext {
    RawCiphertext {
        c0: gen_poly(s),
        c1: gen_poly(s),
        level: (xorshift(s) % 4) as usize,
        scale: 2f64.powi(40),
        slots: 1 << (xorshift(s) % 5),
        noise_log2: (xorshift(s) % 30) as f64,
    }
}

fn gen_program(s: &mut u64) -> OpProgram {
    let mut p = OpProgram::new(1 + (xorshift(s) % 3) as u32);
    for _ in 0..xorshift(s) % 12 {
        let a = xorshift(s) as u32 % p.reg_count();
        let b = xorshift(s) as u32 % p.reg_count();
        p.push(match xorshift(s) % 11 {
            0 => ProgramOp::Add { a, b },
            1 => ProgramOp::Sub { a, b },
            2 => ProgramOp::Mul { a, b },
            3 => ProgramOp::Square { a },
            4 => ProgramOp::Negate { a },
            5 => ProgramOp::AddScalar { a, c: 0.5 },
            6 => ProgramOp::MulScalar { a, c: -1.25 },
            7 => ProgramOp::MulInt { a, k: -3 },
            8 => ProgramOp::Rotate { a, k: -2 },
            9 => ProgramOp::Conjugate { a },
            _ => ProgramOp::MulPlain { a, plain: b },
        });
    }
    for _ in 0..xorshift(s) % 3 {
        p.output(xorshift(s) as u32 % p.reg_count());
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Session uploads with and without relin / conjugation keys and
    /// 0..n rotations and plaintexts — and the two persist records that
    /// embed the same key material.
    #[test]
    fn session_upload_len_is_its_frame_len(
        seed in any::<u64>(),
        rotations in 0usize..5,
        plaintexts in 0usize..4,
    ) {
        let mut s = seed | 1;
        let upload = gen_upload(&mut s, rotations, plaintexts);
        prop_assert_eq!(upload.encoded_len(), upload.to_bytes().len());
        prop_assert_eq!(upload.as_upload().encoded_len(), upload.to_bytes().len());

        let keys = KeySetRecord {
            relin: upload.relin.clone(),
            rotations: upload.rotations.clone(),
            conjugation: upload.conjugation.clone(),
        };
        prop_assert_eq!(keys.encoded_len(), keys.encode().len());

        let sess = SessionRecord {
            id: xorshift(&mut s),
            device: 3,
            weight: 2,
            upload,
        };
        prop_assert_eq!(sess.borrowed().encoded_len(), sess.encode().len());
    }

    #[test]
    fn eval_frames_len_is_their_frame_len(seed in any::<u64>(), cts in 0usize..4) {
        let mut s = seed | 1;
        let ct = gen_ciphertext(&mut s);
        prop_assert_eq!(ct.encoded_len(), ct.to_bytes().len());
        let req = EvalRequest {
            session_id: xorshift(&mut s),
            inputs: (0..cts).map(|_| gen_ciphertext(&mut s)).collect(),
            program: gen_program(&mut s),
        };
        prop_assert_eq!(req.encoded_len(), req.to_bytes().len());
        let ok = EvalResponse::ok((0..cts).map(|_| gen_ciphertext(&mut s)).collect());
        prop_assert_eq!(ok.encoded_len(), ok.to_bytes().len());
        let failed = EvalResponse::failed("missing rotation key ✗");
        prop_assert_eq!(failed.encoded_len(), failed.to_bytes().len());
    }

    /// A session record streamed from borrowed state reads back as the
    /// record `encode()` buffers.
    #[test]
    fn streamed_session_record_equals_buffered(seed in any::<u64>()) {
        let mut s = seed | 1;
        let sess = SessionRecord {
            id: xorshift(&mut s),
            device: 1,
            weight: 7,
            upload: gen_upload(&mut s, 2, 1),
        };
        let rec = sess.borrowed();
        let mut w = RecordWriter::new(Vec::new()).unwrap();
        w.record_with(kind::SESSION, rec.encoded_len(), |out| rec.write_into(out))
            .unwrap();
        let stream = w.finish().unwrap();
        let mut r = RecordReader::new(&stream[..]).unwrap();
        let got = r.read_record().unwrap().unwrap();
        prop_assert_eq!(got.payload, &sess.encode()[..]);
        prop_assert!(r.read_record().unwrap().is_none());
    }
}
