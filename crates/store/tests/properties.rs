//! Property-based tests for the plan file format.
//!
//! Two classes of property:
//!
//! 1. **Round-trip fidelity** — for arbitrary solvable lower-triangular
//!    systems, `encode_plan → decode_plan` yields a plan whose `solve`
//!    output is *bit-identical* to the original's, in both `f64` and `f32`.
//! 2. **Corruption robustness** — flipping any single byte of an encoded
//!    file, truncating it at any point, or appending garbage must produce
//!    a typed [`StoreError`], never a panic and never a silently wrong
//!    plan. (A flipped byte can never decode successfully: every payload
//!    byte is covered by a section CRC and every header byte by an exact
//!    field check.)

use proptest::prelude::*;
use recblock::blocked::{BlockedOptions, BlockedTri, DepthRule};
use recblock::{Selector, TriKernel};
use recblock_gpu_sim::cost::SpmvKind;
use recblock_kernels::exec::{ScheduleMode, TuneParams};
use recblock_matrix::{generate, Csr, MatrixError, Scalar};
use recblock_store::{decode_plan, encode_plan, PlanKey, StoreError};

/// Strategy: a random solvable lower-triangular matrix.
fn arb_lower() -> impl Strategy<Value = Csr<f64>> {
    (20usize..160, 0u64..500, 1u32..40)
        .prop_map(|(n, seed, deg10)| generate::random_lower::<f64>(n, deg10 as f64 / 10.0, seed))
}

fn build<S: Scalar>(l: &Csr<S>, depth: usize) -> BlockedTri<S> {
    let opts = BlockedOptions { depth: DepthRule::Fixed(depth), ..BlockedOptions::default() };
    BlockedTri::build(l, &opts).expect("solvable system")
}

fn build_tuned<S: Scalar>(l: &Csr<S>, depth: usize, tune: TuneParams) -> BlockedTri<S> {
    let opts = BlockedOptions { depth: DepthRule::Fixed(depth), tune, ..BlockedOptions::default() };
    BlockedTri::build(l, &opts).expect("solvable system")
}

/// Strategy: arbitrary engine tuning across the whole persisted surface,
/// including everything the autotuner's candidate grid can pick.
fn arb_tune() -> impl Strategy<Value = TuneParams> {
    ((0usize..3, 1usize..64, 1usize..4096), 1usize..1024, 1usize..32768, 1usize..32768, 1usize..16)
        .prop_map(|((mode, p2p_min, p2p_chunk), par_rows, fuse_nnz, chunk_nnz, lanes)| TuneParams {
            par_rows,
            fuse_nnz,
            chunk_nnz,
            lanes,
            schedule_mode: ScheduleMode::from_index(mode),
            p2p_min_parallel: p2p_min,
            p2p_chunk_nnz: p2p_chunk,
        })
}

/// Offset of the body section's header in an encoded plan, and the body.
fn body_section(bytes: &[u8]) -> (usize, &[u8]) {
    let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()) as usize;
    let body_hdr = 12 + 16 + u64_at(16);
    let body_len = u64_at(body_hdr + 4);
    (body_hdr, &bytes[body_hdr + 16..body_hdr + 16 + body_len])
}

/// Re-frame an encoded plan around a replacement body: the header and meta
/// section stay, the body section's length and CRC are recomputed, so the
/// result passes every checksum.
fn reseal(bytes: &[u8], body: &[u8]) -> Vec<u8> {
    let (body_hdr, _) = body_section(bytes);
    let mut out = bytes[..body_hdr + 4].to_vec();
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&recblock_store::crc::crc32(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Synthesize a v2 plan file from v3 bytes: stamp the old version and strip
/// the three scheduling-mode tune fields (u8 + 2 × u64) v3 appended after
/// the four original tune words, then re-frame the body section. Mirrors
/// the hand-built fixture in `store_roundtrip.rs`.
fn synth_v2(bytes: &[u8]) -> Vec<u8> {
    let (_, body) = body_section(bytes);
    let nperm = u64::from_le_bytes(body[0..8].try_into().unwrap()) as usize;
    let cut = 8 + nperm * 8 + 4 * 8;
    let v2_body = [&body[..cut], &body[cut + 17..]].concat();
    let mut v2 = reseal(bytes, &v2_body);
    v2[8..12].copy_from_slice(&2u32.to_le_bytes());
    v2
}

/// A length-prefixed `usize` array as the plan encoder writes it.
fn words(v: &[usize]) -> Vec<u8> {
    let mut out = (v.len() as u64).to_le_bytes().to_vec();
    for &x in v {
        out.extend_from_slice(&(x as u64).to_le_bytes());
    }
    out
}

/// A plan whose level-set block carries levels out of dependency order — a
/// 600-row chain squeezed into one level, rows reversed — must fail to load
/// with a typed error even when every checksum is valid: solving it would
/// run dependent rows of one "level" concurrently.
#[test]
fn levels_out_of_dependency_order_fail_to_load() {
    let l = generate::chain::<f64>(600, 7);
    let opts = BlockedOptions {
        depth: DepthRule::Fixed(0),
        reorder: false,
        selector: Selector::Fixed(TriKernel::LevelSet, SpmvKind::ScalarCsr),
        ..BlockedOptions::default()
    };
    let plan = BlockedTri::build(&l, &opts).expect("solvable system");
    let bytes = encode_plan(&plan, &PlanKey::of(&l), 0.0);
    decode_plan::<f64>(&bytes).expect("clean bytes decode");

    let (_, body) = body_section(&bytes);
    let own =
        [words(&(0..=600).collect::<Vec<_>>()), words(&(0..600).collect::<Vec<_>>())].concat();
    let at = body.windows(own.len()).position(|w| w == own).expect("chain levels in body");
    let reversed = [words(&[0, 600]), words(&(0..600).rev().collect::<Vec<_>>())].concat();
    let patched = [&body[..at], &reversed, &body[at + own.len()..]].concat();
    match decode_plan::<f64>(&reseal(&bytes, &patched)) {
        Err(StoreError::Matrix(MatrixError::LevelOrder { row: 1, col: 0 })) => {}
        Err(e) => panic!("expected a level-order error, got {e}"),
        Ok(_) => panic!("a plan with levels out of dependency order loaded"),
    }
}

fn rhs_for<S: Scalar>(n: usize, seed: u64) -> Vec<S> {
    (0..n)
        .map(|i| S::from_f64((((i as u64).wrapping_mul(seed + 13) % 89) as f64) / 44.5 - 1.0))
        .collect()
}

fn to_f32(l: &Csr<f64>) -> Csr<f32> {
    Csr::try_new(
        l.nrows(),
        l.ncols(),
        l.row_ptr().to_vec(),
        l.col_idx().to_vec(),
        l.vals().iter().map(|&v| v as f32).collect(),
    )
    .expect("same structure")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn roundtrip_solve_is_bit_identical_f64(l in arb_lower(), depth in 0usize..4, rhs_seed in 0u64..50) {
        let plan = build(&l, depth);
        let key = PlanKey::of(&l);
        let bytes = encode_plan(&plan, &key, 0.25);
        let (meta, back) = decode_plan::<f64>(&bytes).expect("clean bytes decode");
        prop_assert_eq!(meta.key, key);
        prop_assert_eq!(meta.nblocks, plan.nblocks());

        let b = rhs_for::<f64>(l.nrows(), rhs_seed);
        let x1 = plan.solve(&b).unwrap();
        let x2 = back.solve(&b).unwrap();
        for (a, c) in x1.iter().zip(&x2) {
            prop_assert_eq!(a.to_bits(), c.to_bits());
        }
    }

    #[test]
    fn roundtrip_solve_is_bit_identical_f32(l64 in arb_lower(), depth in 0usize..3) {
        let l = to_f32(&l64);
        let plan = build(&l, depth);
        let key = PlanKey::of(&l);
        let bytes = encode_plan(&plan, &key, 0.0);
        let (_, back) = decode_plan::<f32>(&bytes).expect("clean bytes decode");

        let b = rhs_for::<f32>(l.nrows(), 5);
        let x1 = plan.solve(&b).unwrap();
        let x2 = back.solve(&b).unwrap();
        for (a, c) in x1.iter().zip(&x2) {
            prop_assert_eq!(a.to_bits(), c.to_bits());
        }
    }

    #[test]
    fn tuned_params_roundtrip_v3(l in arb_lower(), tune in arb_tune(), rhs_seed in 0u64..50) {
        let plan = build_tuned(&l, 2, tune);
        let key = PlanKey::of(&l);
        let bytes = encode_plan(&plan, &key, 0.1);
        let (_, back) = decode_plan::<f64>(&bytes).expect("clean bytes decode");
        prop_assert_eq!(back.tune(), tune);

        let b = rhs_for::<f64>(l.nrows(), rhs_seed);
        let x1 = plan.solve(&b).unwrap();
        let x2 = back.solve(&b).unwrap();
        for (a, c) in x1.iter().zip(&x2) {
            prop_assert_eq!(a.to_bits(), c.to_bits());
        }
    }

    #[test]
    fn tuned_params_survive_v2_read_compat(l in arb_lower(), tune in arb_tune()) {
        let plan = build_tuned(&l, 1, tune);
        let bytes = encode_plan(&plan, &PlanKey::of(&l), 0.0);
        let v2 = synth_v2(&bytes);
        let (_, back) = decode_plan::<f64>(&v2).expect("synthesized v2 file decodes");
        let got = back.tune();
        let d = TuneParams::default();
        // The four words a v2 writer knew about survive verbatim…
        prop_assert_eq!(got.par_rows, tune.par_rows);
        prop_assert_eq!(got.fuse_nnz, tune.fuse_nnz);
        prop_assert_eq!(got.chunk_nnz, tune.chunk_nnz);
        prop_assert_eq!(got.lanes, tune.lanes);
        // …while the v3 scheduling fields fall back to defaults.
        prop_assert_eq!(got.schedule_mode, d.schedule_mode);
        prop_assert_eq!(got.p2p_min_parallel, d.p2p_min_parallel);
        prop_assert_eq!(got.p2p_chunk_nnz, d.p2p_chunk_nnz);
    }

    #[test]
    fn any_single_byte_flip_is_a_typed_error(
        l in arb_lower(),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let plan = build(&l, 2);
        let bytes = encode_plan(&plan, &PlanKey::of(&l), 0.0);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;

        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 1 << bit;
        // Must return a typed error — never panic, never decode to a plan.
        let err = decode_plan::<f64>(&corrupt).expect_err("corrupt byte must not decode");
        drop(err); // any StoreError variant is acceptable; reaching here means no panic
    }

    #[test]
    fn any_truncation_is_a_typed_error(l in arb_lower(), keep_frac in 0.0f64..1.0) {
        let plan = build(&l, 2);
        let bytes = encode_plan(&plan, &PlanKey::of(&l), 0.0);
        let keep = ((bytes.len() - 1) as f64 * keep_frac) as usize;
        decode_plan::<f64>(&bytes[..keep]).expect_err("truncated file must not decode");
    }

    #[test]
    fn trailing_garbage_is_a_typed_error(l in arb_lower(), extra in 1usize..64) {
        let plan = build(&l, 1);
        let mut bytes = encode_plan(&plan, &PlanKey::of(&l), 0.0);
        bytes.extend(std::iter::repeat_n(0xA5, extra));
        decode_plan::<f64>(&bytes).expect_err("trailing bytes must not decode");
    }
}

/// Exhaustive (non-random) flip battery on one small plan: every byte,
/// every bit. This nails the guarantee the proptest above samples.
#[test]
fn exhaustive_flip_battery_on_small_plan() {
    let l = generate::random_lower::<f64>(24, 2.0, 42);
    let plan = build(&l, 1);
    let bytes = encode_plan(&plan, &PlanKey::of(&l), 0.0);
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << bit;
            assert!(
                decode_plan::<f64>(&corrupt).is_err(),
                "flip at byte {pos} bit {bit} decoded successfully"
            );
        }
    }
}
