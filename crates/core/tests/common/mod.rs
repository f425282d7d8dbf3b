//! Helpers the fides-core integration tests share: a logN-11 cost-only
//! context and placeholder evaluation keys for it.

use std::sync::Arc;

use fides_client::{Domain, RawKeyDigit, RawPoly, RawSwitchingKey};
use fides_core::{adapter, CkksContext, CkksParameters, EvalKeySet};
use fides_gpu_sim::{DeviceSpec, ExecMode, GpuSim};

/// A logN-11 cost-only context deep enough for an LR iteration plus a
/// bootstrap (the `lr_boot` test chain).
pub fn context() -> Arc<CkksContext> {
    let params = CkksParameters::new(11, 26, 50, 3)
        .expect("valid parameters")
        .with_first_mod_bits(55);
    CkksContext::new(
        params,
        GpuSim::new(DeviceSpec::rtx_4090(), ExecMode::CostOnly),
    )
}

/// A zero-shaped switching key: cost-only kernels never read key data.
pub fn placeholder_key(ctx: &Arc<CkksContext>) -> fides_core::KeySwitchingKey {
    let chain = ctx.max_level() + 1 + ctx.alpha();
    let poly = || RawPoly {
        limbs: vec![Vec::new(); chain],
        domain: Domain::Eval,
    };
    let raw = RawSwitchingKey {
        digits: (0..ctx.raw_params().dnum)
            .map(|_| RawKeyDigit {
                b: poly(),
                a: poly(),
            })
            .collect(),
    };
    adapter::load_switching_key(ctx, &raw).expect("placeholder key matches the chain")
}

/// Relinearization, conjugation and one key per rotation shift.
pub fn keys(ctx: &Arc<CkksContext>, shifts: &[i32]) -> EvalKeySet {
    let mut keys = EvalKeySet::new();
    keys.set_mult(placeholder_key(ctx));
    keys.set_conj(placeholder_key(ctx));
    for &s in shifts.iter().filter(|&&s| s != 0) {
        keys.insert_rotation(
            fides_client::galois_for_rotation(s, ctx.n()),
            placeholder_key(ctx),
        );
    }
    keys
}
