//! Table V: performance comparison of CKKS primitives.
//!
//! `[N, L, Δ, dnum] = [2^16, 29, 2^59, 4]`, maximum-level ciphertexts.
//! Columns: the paper's measured OpenFHE 1-thread and OpenFHE+HEXL 24-thread
//! times, Phantom (simulated RTX 4090) and FIDESlib (simulated RTX 4090) with
//! the paper's values alongside, and the speed-up paper-1T ÷ FIDESlib beside
//! the paper's own. Pass `--measure` to also time the functional Rust path
//! single-threaded (`measured-1T (ours)`).

use std::sync::Arc;
use std::time::Instant;

use fides_baselines::{phantom_params, synth_keys_with_rotations};
use fides_bench::{fmt_us, print_table, sim_time_us};
use fides_core::{adapter, Ciphertext, CkksContext, CkksParameters, EvalKeySet, Plaintext};
use fides_gpu_sim::{DeviceSpec, ExecMode, GpuSim};

/// Runs one Table V primitive on `a` (with `b` / `p` as its second operand).
fn run_op(op: &str, a: &Ciphertext, b: &Ciphertext, p: &Plaintext, keys: &EvalKeySet) {
    match op {
        "ScalarAdd" => {
            let _ = a.add_scalar(1.5).unwrap();
        }
        "PtAdd" => {
            let _ = a.add_plain(p).unwrap();
        }
        "HAdd" => {
            let _ = a.add(b).unwrap();
        }
        "ScalarMult" => {
            let _ = a.mul_scalar(1.5).unwrap();
        }
        "PtMult" => {
            let _ = a.mul_plain(p).unwrap();
        }
        "Rescale" => {
            let mut c = a.duplicate();
            c.rescale_in_place().unwrap();
        }
        "HRotate" => {
            let _ = a.rotate(1, keys).unwrap();
        }
        "HMult" => {
            let _ = a.mul(b, keys).unwrap();
        }
        other => panic!("unknown op {other}"),
    }
}

/// A cost-only context on the simulated RTX 4090.
struct Bench {
    gpu: Arc<GpuSim>,
    ctx: Arc<CkksContext>,
    keys: EvalKeySet,
}

impl Bench {
    fn new(params: CkksParameters) -> Self {
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly);
        let ctx = CkksContext::new(params, Arc::clone(&gpu));
        let keys = synth_keys_with_rotations(&ctx, &[1]);
        Self { gpu, ctx, keys }
    }

    /// Warm-up then measure one operation.
    fn op_us(&self, op: &str) -> f64 {
        let (level, scale, slots) = (
            self.ctx.max_level(),
            self.ctx.fresh_scale(),
            self.ctx.n() / 2,
        );
        let a = adapter::placeholder_ciphertext(&self.ctx, level, scale, slots);
        let b = adapter::placeholder_ciphertext(&self.ctx, level, scale, slots);
        let p = adapter::placeholder_plaintext(&self.ctx, level, scale, slots);
        let run = || run_op(op, &a, &b, &p, &self.keys);
        run(); // warm the L2 model
        sim_time_us(&self.gpu, run)
    }
}

/// `--measure`: real keys and operands on the functional Rust path, built
/// once; each op's single-threaded wall time is the one CPU number this
/// reproduction produces itself.
struct Measured {
    a: Ciphertext,
    b: Ciphertext,
    p: Plaintext,
    keys: EvalKeySet,
}

impl Measured {
    fn new(params: &CkksParameters) -> Self {
        use fides_client::{ClientContext, KeyGenerator};
        use rand::SeedableRng;
        // Only wall time is read here, so the device preset is immaterial.
        let gpu = GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::Functional);
        // A CPU library works on whole polynomials: one limb batch covers all.
        let ctx = CkksContext::new(params.clone().with_limb_batch(256), gpu);
        let client = ClientContext::new(ctx.raw_params().clone());
        let mut kg = KeyGenerator::new(&client, 1);
        let sk = kg.secret_key();
        let pk = kg.public_key(&sk);
        let relin = kg.relinearization_key(&sk);
        let rot = kg.rotation_key(&sk, 1);
        let keys = adapter::load_eval_keys(&ctx, Some(&relin), &[(1, rot)], None)
            .expect("client-generated keys are always loadable");
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let values: Vec<f64> = (0..ctx.n() / 2).map(|i| (i as f64 * 0.01).sin()).collect();
        let pt = client
            .encode_real(&values, ctx.fresh_scale(), ctx.max_level())
            .expect("bench inputs are always encodable");
        let raw_ct = client
            .encrypt(&pt, &pk, &mut rng)
            .expect("bench inputs are always encryptable");
        let a = adapter::load_ciphertext(&ctx, &raw_ct)
            .expect("client-encrypted ciphertexts are always loadable");
        let b = a.duplicate();
        let p = adapter::load_plaintext(&ctx, &pt)
            .expect("client-encoded plaintexts are always loadable");
        Self { a, b, p, keys }
    }

    fn op_us(&self, op: &str) -> f64 {
        let t = Instant::now();
        run_op(op, &self.a, &self.b, &self.p, &self.keys);
        t.elapsed().as_secs_f64() * 1e6
    }
}

fn main() {
    let measure = std::env::args().any(|a| a == "--measure");
    let params = CkksParameters::paper_default();
    println!("Table V reproduction — [logN, L, Δ, dnum] = [16, 29, 59, 4], ℓ = 29");
    // The paper reports FIDESlib at the best limb batch per platform; sweep
    // and pick the HMult-optimal batch for the 4090 (Fig. 7 methodology).
    let best_batch = {
        let mut best = (4usize, f64::INFINITY);
        for batch in [2usize, 4, 6, 8, 10, 12] {
            let t = Bench::new(params.clone().with_limb_batch(batch)).op_us("HMult");
            if t < best.1 {
                best = (batch, t);
            }
        }
        println!(
            "best limb batch for RTX 4090: {} ({:.0} µs HMult)",
            best.0, best.1
        );
        best.0
    };

    let phantom = Bench::new(phantom_params(&params));
    let fides = Bench::new(params.clone().with_limb_batch(best_batch));
    let measured = measure.then(|| Measured::new(&params));

    // (op, paper 1T, paper HEXL, paper Phantom µs, paper FIDESlib µs)
    let ops: &[(&str, f64, f64, Option<f64>, f64)] = &[
        ("ScalarAdd", 1_280.0, 106.0, None, 16.63),
        ("PtAdd", 5_260.0, 5_800.0, Some(20.64), 17.79),
        ("HAdd", 7_840.0, 8_390.0, Some(82.66), 50.70),
        ("ScalarMult", 4_340.0, 225.0, None, 44.15),
        ("PtMult", 10_140.0, 5_320.0, Some(31.91), 21.74),
        ("Rescale", 50_800.0, 4_920.0, Some(224.58), 156.11),
        ("HRotate", 370_710.0, 105_300.0, Some(1_139.0), 1_107.0),
        ("HMult", 406_240.0, 151_580.0, Some(1_220.0), 1_084.0),
    ];

    let mut rows = Vec::new();
    for &(op, p1t, phexl, pphantom, pfides) in ops {
        // Phantom has no ScalarAdd / ScalarMult (Table VIII).
        let cp = pphantom.map(|_| phantom.op_us(op));
        let cf = fides.op_us(op);
        rows.push(vec![
            op.to_string(),
            fmt_us(p1t),
            fmt_us(phexl),
            cp.map_or("N/A".into(), fmt_us),
            pphantom.map_or("N/A".into(), fmt_us),
            fmt_us(cf),
            fmt_us(pfides),
            format!("{:6.0}x", p1t / cf),
            format!("{:6.0}x", p1t / pfides),
            measured
                .as_ref()
                .map_or("-".into(), |m| fmt_us(m.op_us(op))),
        ]);
    }
    print_table(
        "Table V: CKKS primitives (speedup = paper OpenFHE-1T ÷ FIDESlib)",
        &[
            "op",
            "OpenFHE-1T (paper)",
            "HEXL-24T (paper)",
            "Phantom 4090 (sim)",
            "(paper)",
            "FIDESlib 4090 (sim)",
            "(paper)",
            "speedup",
            "(paper)",
            "measured-1T (ours)",
        ],
        &rows,
    );
    let mult_key = fides.keys.mult_key().expect("synth keys carry a mult key");
    println!(
        "\nKSK device footprint (mult key): {:.1} MB",
        mult_key.bytes() as f64 / 1e6
    );
}
