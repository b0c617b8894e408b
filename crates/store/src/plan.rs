//! Plan file format: encode/decode preprocessed solve plans.
//!
//! # Layout
//!
//! ```text
//! magic   [8 bytes]  b"RBSTORE\0"
//! version [u32 LE]   FORMAT_VERSION
//! section            META  (tag 1)
//! section            BODY  (tag 2)
//! <end of file — trailing bytes are an error>
//!
//! section := tag [u32] | payload_len [u64] | crc32c(payload) [u32] | payload
//! ```
//!
//! META is small and fixed-shape: artifact kind, scalar width, the
//! [`PlanKey`], headline dimensions and the original build cost. It has its
//! own CRC so `decode_meta` (used by `planctl inspect` and the store's
//! directory scan) never needs to touch the — typically much larger — BODY.
//!
//! BODY carries the fully preprocessed solver state: the permutation, the
//! block tree in execution order, and for every block its selected kernel
//! plus the exact arrays the kernel runs on (CSR/CSC/DCSR, level
//! schedules, profiles). Loading therefore skips reordering, partitioning,
//! level analysis and kernel selection entirely — the expensive phases the
//! paper measures at ~9× one solve (Table 5).
//!
//! # Integrity
//!
//! Corruption is caught in layers: per-section CRC-32C (all single-bit and
//! single-byte flips), typed truncation checks while decoding, and finally
//! the validating constructors ([`BlockedTri::from_parts`] and friends)
//! which re-verify every structural invariant the solve kernels index by.
//! A length-field flip that survives the CRC of its own section cannot
//! cause over-allocation: array byte budgets are claimed against the
//! remaining payload before any allocation happens.

use crate::crc::{crc32, crc32_parallel};
use crate::error::StoreError;
use crate::key::PlanKey;
use crate::wire::{Reader, Writer};
use recblock::blocked::{BlockParts, BlockPartsKind, BlockViewKind, BlockedTriParts};
use recblock::packed::{PackedBlockParts, PackedBlocked, PackedBlockedParts, PackedShape};
use recblock::sqsolver::{SqSolver, SqStorage};
use recblock::trisolver::TriSolver;
use recblock::BlockedTri;
use recblock_gpu_sim::cost::SpmvKind;
use recblock_gpu_sim::{SpmvProfile, TriProfile};
use recblock_kernels::exec::{ScheduleMode, TuneParams};
use recblock_kernels::sptrsv::{CusparseLikeSolver, LevelSetSolver, SyncFreeSolver};
use recblock_matrix::levelset::LevelSets;
use recblock_matrix::permute::Permutation;
use recblock_matrix::{Csc, Csr, Dcsr, Fingerprint, Scalar};

/// First eight bytes of every plan file.
pub const MAGIC: [u8; 8] = *b"RBSTORE\0";

/// Format version this build writes and reads. Bump on any layout change;
/// readers reject other versions with [`StoreError::WrongVersion`] and the
/// caller rebuilds (see DESIGN.md for the compatibility policy).
///
/// v2 added the execution-engine [`TuneParams`] at the start of the blocked
/// BODY, so a reloaded plan replans its schedules under the exact tuning it
/// was built with.
///
/// v3 extended the persisted [`TuneParams`] with the scheduling-mode fields
/// (`schedule_mode`, `p2p_min_parallel`, `p2p_chunk_nnz`). v2 files remain
/// readable: the reader defaults the new fields, and the point-to-point
/// task graphs themselves are never persisted — they are recompiled at load
/// for the machine doing the loading.
pub const FORMAT_VERSION: u32 = 3;

/// Oldest format version this build still reads (see [`FORMAT_VERSION`]).
pub const MIN_FORMAT_VERSION: u32 = 2;

const TAG_META: u32 = 1;
const TAG_BODY: u32 = 2;

/// Which preprocessed artifact a file carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A [`BlockedTri`] plan (`.rbplan`).
    Blocked,
    /// A [`PackedBlocked`] arena (`.rbpack`).
    Packed,
}

impl ArtifactKind {
    /// File extension used by the store for this kind.
    pub fn extension(self) -> &'static str {
        match self {
            ArtifactKind::Blocked => "rbplan",
            ArtifactKind::Packed => "rbpack",
        }
    }
}

/// The META section: everything about a plan that is knowable without
/// decoding its body.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanMeta {
    /// Which artifact the body holds.
    pub kind: ArtifactKind,
    /// Identity of the matrix the plan was built for.
    pub key: PlanKey,
    /// Byte width of the scalar type the plan was built with (4 or 8).
    pub scalar_bytes: u8,
    /// Rows of the system.
    pub n: usize,
    /// Stored nonzeros.
    pub nnz: usize,
    /// Recursion depth of the original build.
    pub depth: usize,
    /// Number of blocks in the plan.
    pub nblocks: usize,
    /// Wall-clock seconds the original preprocessing took — what a load
    /// saves, reported by the serve metrics as warm-start savings.
    pub build_cost: f64,
}

fn put_meta(w: &mut Writer, meta: &PlanMeta) {
    w.put_u8(match meta.kind {
        ArtifactKind::Blocked => 0,
        ArtifactKind::Packed => 1,
    });
    w.put_u8(meta.scalar_bytes);
    w.put_usize(meta.key.structure.nrows);
    w.put_usize(meta.key.structure.ncols);
    w.put_usize(meta.key.structure.nnz);
    w.put_u64(meta.key.structure.hash);
    w.put_u64(meta.key.values);
    w.put_usize(meta.n);
    w.put_usize(meta.nnz);
    w.put_usize(meta.depth);
    w.put_usize(meta.nblocks);
    w.put_f64(meta.build_cost);
}

fn get_meta(payload: &[u8]) -> Result<PlanMeta, StoreError> {
    let mut r = Reader::new(payload, "meta section");
    let kind = match r.u8()? {
        0 => ArtifactKind::Blocked,
        1 => ArtifactKind::Packed,
        k => return Err(StoreError::Malformed(format!("unknown artifact kind {k}"))),
    };
    let scalar_bytes = r.u8()?;
    if scalar_bytes != 4 && scalar_bytes != 8 {
        return Err(StoreError::Malformed(format!("scalar width {scalar_bytes} is not 4 or 8")));
    }
    let structure =
        Fingerprint { nrows: r.usize()?, ncols: r.usize()?, nnz: r.usize()?, hash: r.u64()? };
    let values = r.u64()?;
    let meta = PlanMeta {
        kind,
        key: PlanKey { structure, values },
        scalar_bytes,
        n: r.usize()?,
        nnz: r.usize()?,
        depth: r.usize()?,
        nblocks: r.usize()?,
        build_cost: r.f64()?,
    };
    r.finish()?;
    Ok(meta)
}

fn put_section(w: &mut Writer, tag: u32, payload: &[u8]) {
    w.put_u32(tag);
    w.put_usize(payload.len());
    w.put_u32(crc32(payload));
    w.put_bytes(payload);
}

/// Read one section frame without verifying its checksum; returns the
/// payload and the stored CRC so the caller chooses when (and on how many
/// threads) to verify.
fn read_section_raw<'a>(
    r: &mut Reader<'a>,
    expect_tag: u32,
    section: &'static str,
) -> Result<(&'a [u8], u32), StoreError> {
    let tag = r.u32()?;
    if tag != expect_tag {
        return Err(StoreError::Malformed(format!(
            "expected section tag {expect_tag} ({section}), found {tag}"
        )));
    }
    let len = r.usize()?;
    let crc = r.u32()?;
    let payload = r.take(len)?;
    Ok((payload, crc))
}

fn read_section<'a>(
    r: &mut Reader<'a>,
    expect_tag: u32,
    section: &'static str,
) -> Result<&'a [u8], StoreError> {
    let (payload, crc) = read_section_raw(r, expect_tag, section)?;
    if crc32(payload) != crc {
        return Err(StoreError::ChecksumMismatch { section });
    }
    Ok(payload)
}

/// Parse the header and META section; the body is not decoded. Used for
/// inspection and for the store's key check before committing to a full
/// decode.
pub fn decode_meta(bytes: &[u8]) -> Result<PlanMeta, StoreError> {
    let mut r = Reader::new(bytes, "plan file header");
    let magic = r.take(8)?;
    if magic != MAGIC {
        return Err(StoreError::WrongMagic);
    }
    let version = r.u32()?;
    if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(StoreError::WrongVersion { found: version, expected: FORMAT_VERSION });
    }
    let meta_payload = read_section(&mut r, TAG_META, "meta")?;
    get_meta(meta_payload)
}

/// Scalar-independent integrity check of a whole plan/pack file: magic,
/// version, META and BODY checksums, and no trailing bytes. The body is
/// *not* decoded, so the check needs no knowledge of the stored scalar
/// type — exactly what a boot-time recovery scan wants, where files of
/// every width sit in one directory.
pub fn verify_file(bytes: &[u8]) -> Result<PlanMeta, StoreError> {
    let meta = decode_meta(bytes)?;
    let mut r = Reader::new(bytes, "plan file header");
    r.take(8)?;
    r.u32()?;
    read_section(&mut r, TAG_META, "meta")?;
    let (body, crc) = read_section_raw(&mut r, TAG_BODY, "body")?;
    r.finish()?;
    if crc32_parallel(body) != crc {
        return Err(StoreError::ChecksumMismatch { section: "body" });
    }
    Ok(meta)
}

fn encode_file(meta: &PlanMeta, body: Vec<u8>) -> Vec<u8> {
    let mut mw = Writer::new();
    put_meta(&mut mw, meta);
    let meta_payload = mw.into_bytes();

    let mut w = Writer::new();
    w.put_bytes(&MAGIC);
    w.put_u32(FORMAT_VERSION);
    put_section(&mut w, TAG_META, &meta_payload);
    put_section(&mut w, TAG_BODY, &body);
    w.into_bytes()
}

/// Shared prologue of the full decoders: header + META + BODY frame. The
/// body checksum is **not** verified here — the stored CRC is returned so
/// [`decode_checked`] can run verification concurrently with decoding.
fn decode_body<S: Scalar>(
    bytes: &[u8],
    want: ArtifactKind,
) -> Result<(PlanMeta, u32, &[u8], u32), StoreError> {
    let meta = decode_meta(bytes)?;
    if meta.scalar_bytes as usize != S::BYTES {
        return Err(StoreError::ScalarMismatch {
            expected: S::BYTES as u8,
            found: meta.scalar_bytes,
        });
    }
    if meta.kind != want {
        return Err(StoreError::Malformed(format!(
            "file holds a {:?} artifact, expected {:?}",
            meta.kind, want
        )));
    }
    // Re-walk the header to position after META (decode_meta borrowed it).
    let mut r = Reader::new(bytes, "plan file header");
    r.take(8)?;
    let version = r.u32()?;
    read_section(&mut r, TAG_META, "meta")?;
    let (body, crc) = read_section_raw(&mut r, TAG_BODY, "body")?;
    r.finish()?;
    Ok((meta, version, body, crc))
}

/// Run the body decoder while the body checksum is verified on other
/// threads, then reconcile. The decoder only ever produces typed errors on
/// bad input (no panics, no unchecked allocation), so letting it race ahead
/// of verification is safe; a checksum failure takes priority over whatever
/// the decoder made of the corrupt bytes, since it is the more precise
/// diagnosis. This overlap — plus the parallel CRC itself — is what keeps
/// a load several times cheaper than a rebuild even on multi-megabyte
/// plans.
fn decode_checked<T>(
    body: &[u8],
    stored_crc: u32,
    decode: impl FnOnce(&[u8]) -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    let (crc_ok, decoded) = std::thread::scope(|s| {
        let crc = s.spawn(|| crc32_parallel(body) == stored_crc);
        let decoded = decode(body);
        (crc.join().expect("crc thread panicked"), decoded)
    });
    if !crc_ok {
        return Err(StoreError::ChecksumMismatch { section: "body" });
    }
    decoded
}

// ---------------------------------------------------------------------------
// Shared component encoders/decoders
// ---------------------------------------------------------------------------

fn put_csr<S: Scalar>(w: &mut Writer, a: &Csr<S>) {
    w.put_usize(a.nrows());
    w.put_usize(a.ncols());
    w.put_usize_slice(a.row_ptr());
    w.put_usize_slice(a.col_idx());
    w.put_scalar_slice(a.vals());
}

fn get_csr<S: Scalar>(r: &mut Reader<'_>) -> Result<Csr<S>, StoreError> {
    let nrows = r.usize()?;
    let ncols = r.usize()?;
    let row_ptr = r.usize_vec()?;
    let col_idx = r.usize_vec()?;
    let vals = r.scalar_vec()?;
    Ok(Csr::try_new(nrows, ncols, row_ptr, col_idx, vals)?)
}

fn put_csc<S: Scalar>(w: &mut Writer, a: &Csc<S>) {
    w.put_usize(a.nrows());
    w.put_usize(a.ncols());
    w.put_usize_slice(a.col_ptr());
    w.put_usize_slice(a.row_idx());
    w.put_scalar_slice(a.vals());
}

fn get_csc<S: Scalar>(r: &mut Reader<'_>) -> Result<Csc<S>, StoreError> {
    let nrows = r.usize()?;
    let ncols = r.usize()?;
    let col_ptr = r.usize_vec()?;
    let row_idx = r.usize_vec()?;
    let vals = r.scalar_vec()?;
    Ok(Csc::try_new(nrows, ncols, col_ptr, row_idx, vals)?)
}

fn put_dcsr<S: Scalar>(w: &mut Writer, a: &Dcsr<S>) {
    w.put_usize(a.nrows());
    w.put_usize(a.ncols());
    w.put_usize_slice(a.row_ids());
    w.put_usize_slice(a.row_ptr());
    w.put_usize_slice(a.col_idx());
    w.put_scalar_slice(a.vals());
}

fn get_dcsr<S: Scalar>(r: &mut Reader<'_>) -> Result<Dcsr<S>, StoreError> {
    let nrows = r.usize()?;
    let ncols = r.usize()?;
    let row_ids = r.usize_vec()?;
    let row_ptr = r.usize_vec()?;
    let col_idx = r.usize_vec()?;
    let vals = r.scalar_vec()?;
    Ok(Dcsr::try_new(nrows, ncols, row_ids, row_ptr, col_idx, vals)?)
}

fn put_levels(w: &mut Writer, lv: &LevelSets) {
    w.put_usize_slice(lv.level_ptr());
    w.put_usize_slice(lv.items());
}

fn get_levels(r: &mut Reader<'_>) -> Result<LevelSets, StoreError> {
    let level_ptr = r.usize_vec()?;
    let items = r.usize_vec()?;
    Ok(LevelSets::from_parts(level_ptr, items)?)
}

fn put_tri_profile(w: &mut Writer, p: &TriProfile) {
    w.put_usize(p.n);
    w.put_usize(p.nnz);
    w.put_usize_slice(&p.level_rows);
    w.put_usize_slice(&p.level_nnz);
    w.put_usize_slice(&p.level_max_row);
    w.put_usize_slice(&p.level_max_col);
}

fn get_tri_profile(r: &mut Reader<'_>) -> Result<TriProfile, StoreError> {
    let n = r.usize()?;
    let nnz = r.usize()?;
    let level_rows = r.usize_vec()?;
    let level_nnz = r.usize_vec()?;
    let level_max_row = r.usize_vec()?;
    let level_max_col = r.usize_vec()?;
    let nlevels = level_rows.len();
    if level_nnz.len() != nlevels
        || level_max_row.len() != nlevels
        || level_max_col.len() != nlevels
    {
        return Err(StoreError::Malformed("tri profile level arrays disagree in length".into()));
    }
    Ok(TriProfile { n, nnz, level_rows, level_nnz, level_max_row, level_max_col })
}

fn put_spmv_profile(w: &mut Writer, p: &SpmvProfile) {
    w.put_usize(p.nrows);
    w.put_usize(p.ncols);
    w.put_usize(p.nnz);
    w.put_usize(p.lanes);
    w.put_usize(p.max_row);
}

fn get_spmv_profile(r: &mut Reader<'_>) -> Result<SpmvProfile, StoreError> {
    Ok(SpmvProfile {
        nrows: r.usize()?,
        ncols: r.usize()?,
        nnz: r.usize()?,
        lanes: r.usize()?,
        max_row: r.usize()?,
    })
}

fn put_tune(w: &mut Writer, t: TuneParams) {
    w.put_usize(t.par_rows);
    w.put_usize(t.fuse_nnz);
    w.put_usize(t.chunk_nnz);
    w.put_usize(t.lanes);
    w.put_u8(t.schedule_mode.as_index() as u8);
    w.put_usize(t.p2p_min_parallel);
    w.put_usize(t.p2p_chunk_nnz);
}

/// Read the persisted [`TuneParams`]; a v2 body predates the scheduling-mode
/// fields and gets their defaults, so old plans keep loading (and keep the
/// same automatic mode selection they would get from a fresh build).
fn get_tune(r: &mut Reader<'_>, version: u32) -> Result<TuneParams, StoreError> {
    let mut t = TuneParams {
        par_rows: r.usize()?,
        fuse_nnz: r.usize()?,
        chunk_nnz: r.usize()?,
        lanes: r.usize()?,
        ..TuneParams::default()
    };
    if version >= 3 {
        t.schedule_mode = ScheduleMode::from_index(r.u8()? as usize);
        t.p2p_min_parallel = r.usize()?;
        t.p2p_chunk_nnz = r.usize()?;
    }
    Ok(t)
}

fn spmv_kind_tag(k: SpmvKind) -> u8 {
    match k {
        SpmvKind::ScalarCsr => 0,
        SpmvKind::VectorCsr => 1,
        SpmvKind::ScalarDcsr => 2,
        SpmvKind::VectorDcsr => 3,
    }
}

fn spmv_kind_from(tag: u8) -> Result<SpmvKind, StoreError> {
    Ok(match tag {
        0 => SpmvKind::ScalarCsr,
        1 => SpmvKind::VectorCsr,
        2 => SpmvKind::ScalarDcsr,
        3 => SpmvKind::VectorDcsr,
        t => return Err(StoreError::Malformed(format!("unknown spmv kind tag {t}"))),
    })
}

// ---------------------------------------------------------------------------
// BlockedTri plan
// ---------------------------------------------------------------------------

const TRI_DIAG: u8 = 0;
const TRI_LEVELSET: u8 = 1;
const TRI_SYNCFREE: u8 = 2;
const TRI_CUSPARSE: u8 = 3;

fn put_tri_solver<S: Scalar>(w: &mut Writer, s: &TriSolver<S>) {
    match s {
        TriSolver::Diag(l) => {
            w.put_u8(TRI_DIAG);
            put_csr(w, l);
        }
        TriSolver::LevelSet(s) => {
            w.put_u8(TRI_LEVELSET);
            put_csr(w, s.matrix());
            put_levels(w, s.levels());
        }
        TriSolver::SyncFree(s) => {
            w.put_u8(TRI_SYNCFREE);
            put_csc(w, s.matrix());
            w.put_usize(s.nthreads());
        }
        TriSolver::Cusparse(s) => {
            w.put_u8(TRI_CUSPARSE);
            put_csr(w, s.matrix());
            put_levels(w, s.levels());
        }
    }
}

fn get_tri_solver<S: Scalar>(
    r: &mut Reader<'_>,
    tune: TuneParams,
) -> Result<TriSolver<S>, StoreError> {
    Ok(match r.u8()? {
        TRI_DIAG => TriSolver::Diag(get_csr(r)?),
        TRI_LEVELSET => {
            let l = get_csr(r)?;
            let levels = get_levels(r)?;
            TriSolver::LevelSet(LevelSetSolver::with_tune(l, levels, tune)?)
        }
        TRI_SYNCFREE => {
            let csc = get_csc(r)?;
            let nthreads = r.usize()?;
            TriSolver::SyncFree(SyncFreeSolver::from_csc(csc, nthreads)?)
        }
        TRI_CUSPARSE => {
            let l = get_csr(r)?;
            let levels = get_levels(r)?;
            TriSolver::Cusparse(CusparseLikeSolver::with_levels_tuned(l, levels, tune)?)
        }
        t => return Err(StoreError::Malformed(format!("unknown tri solver tag {t}"))),
    })
}

const BLOCK_TRI: u8 = 0;
const BLOCK_SQUARE: u8 = 1;

const STORAGE_CSR: u8 = 0;
const STORAGE_DCSR: u8 = 1;

/// Serialize a fully built plan. `build_cost` is the wall-clock seconds the
/// original preprocessing took (recorded so a later load can report what it
/// saved).
pub fn encode_plan<S: Scalar>(blocked: &BlockedTri<S>, key: &PlanKey, build_cost: f64) -> Vec<u8> {
    let meta = PlanMeta {
        kind: ArtifactKind::Blocked,
        key: *key,
        scalar_bytes: S::BYTES as u8,
        n: blocked.n(),
        nnz: blocked.nnz(),
        depth: blocked.depth(),
        nblocks: blocked.nblocks(),
        build_cost,
    };
    let mut b = Writer::new();
    b.put_usize_slice(blocked.permutation().forward());
    put_tune(&mut b, blocked.tune());
    b.put_usize(blocked.nblocks());
    for v in blocked.block_views() {
        b.put_range(&v.rows);
        b.put_range(&v.cols);
        match v.kind {
            BlockViewKind::Tri { solver, profile } => {
                b.put_u8(BLOCK_TRI);
                put_tri_solver(&mut b, solver);
                put_tri_profile(&mut b, profile);
            }
            BlockViewKind::Square(sq) => {
                b.put_u8(BLOCK_SQUARE);
                b.put_u8(spmv_kind_tag(sq.kind()));
                match sq.storage() {
                    SqStorage::Csr(a) => {
                        b.put_u8(STORAGE_CSR);
                        put_csr(&mut b, a);
                    }
                    SqStorage::Dcsr(a) => {
                        b.put_u8(STORAGE_DCSR);
                        put_dcsr(&mut b, a);
                    }
                }
                put_spmv_profile(&mut b, sq.profile());
            }
        }
    }
    encode_file(&meta, b.into_bytes())
}

/// Decode a [`BlockedTri`] plan, re-validating every structural invariant.
pub fn decode_plan<S: Scalar>(bytes: &[u8]) -> Result<(PlanMeta, BlockedTri<S>), StoreError> {
    let (meta, version, body, crc) = decode_body::<S>(bytes, ArtifactKind::Blocked)?;
    let blocked = decode_checked(body, crc, |body| decode_plan_body::<S>(&meta, version, body))?;
    Ok((meta, blocked))
}

fn decode_plan_body<S: Scalar>(
    meta: &PlanMeta,
    version: u32,
    body: &[u8],
) -> Result<BlockedTri<S>, StoreError> {
    let mut r = Reader::new(body, "body section");
    let perm = Permutation::from_forward(r.usize_vec()?)?;
    let tune = get_tune(&mut r, version)?;
    let nblocks = r.usize()?;
    if nblocks != meta.nblocks {
        return Err(StoreError::Malformed(format!(
            "body holds {nblocks} blocks, meta declares {}",
            meta.nblocks
        )));
    }
    let mut blocks = Vec::with_capacity(nblocks.min(body.len()));
    for _ in 0..nblocks {
        let rows = r.range()?;
        let cols = r.range()?;
        let kind = match r.u8()? {
            BLOCK_TRI => {
                let solver = get_tri_solver(&mut r, tune)?;
                let profile = get_tri_profile(&mut r)?;
                BlockPartsKind::Tri { solver, profile }
            }
            BLOCK_SQUARE => {
                let kind = spmv_kind_from(r.u8()?)?;
                let storage = match r.u8()? {
                    STORAGE_CSR => SqStorage::Csr(get_csr(&mut r)?),
                    STORAGE_DCSR => SqStorage::Dcsr(get_dcsr(&mut r)?),
                    t => return Err(StoreError::Malformed(format!("unknown storage tag {t}"))),
                };
                let profile = get_spmv_profile(&mut r)?;
                BlockPartsKind::Square(SqSolver::from_parts_tuned(kind, storage, profile, tune)?)
            }
            t => return Err(StoreError::Malformed(format!("unknown block tag {t}"))),
        };
        blocks.push(BlockParts { rows, cols, kind });
    }
    r.finish()?;
    let parts = BlockedTriParts { n: meta.n, nnz: meta.nnz, depth: meta.depth, perm, tune, blocks };
    Ok(BlockedTri::from_parts(parts)?)
}

// ---------------------------------------------------------------------------
// PackedBlocked arena
// ---------------------------------------------------------------------------

fn shape_tag(s: PackedShape) -> u8 {
    match s {
        PackedShape::TriCsc => 0,
        PackedShape::SquareCsr => 1,
        PackedShape::SquareDcsr => 2,
    }
}

fn shape_from(tag: u8) -> Result<PackedShape, StoreError> {
    Ok(match tag {
        0 => PackedShape::TriCsc,
        1 => PackedShape::SquareCsr,
        2 => PackedShape::SquareDcsr,
        t => return Err(StoreError::Malformed(format!("unknown packed shape tag {t}"))),
    })
}

/// Serialize a packed arena.
pub fn encode_packed<S: Scalar>(
    packed: &PackedBlocked<S>,
    key: &PlanKey,
    build_cost: f64,
) -> Vec<u8> {
    let parts = packed.to_parts();
    let meta = PlanMeta {
        kind: ArtifactKind::Packed,
        key: *key,
        scalar_bytes: S::BYTES as u8,
        n: parts.n,
        nnz: parts.nnz,
        depth: parts.depth,
        nblocks: parts.blocks.len(),
        build_cost,
    };
    let mut b = Writer::new();
    b.put_usize_slice(parts.perm.forward());
    b.put_scalar_slice(&parts.diag);
    b.put_usize_slice(&parts.ptr);
    b.put_usize_slice(&parts.idx);
    b.put_scalar_slice(&parts.vals);
    b.put_usize_slice(&parts.aux);
    b.put_usize(parts.blocks.len());
    for blk in &parts.blocks {
        b.put_u8(shape_tag(blk.shape));
        b.put_range(&blk.rows);
        b.put_range(&blk.cols);
        b.put_range(&blk.ptr);
        b.put_range(&blk.data);
        b.put_range(&blk.aux);
    }
    encode_file(&meta, b.into_bytes())
}

/// Decode a [`PackedBlocked`] arena, re-validating every span the solve
/// kernels index by.
pub fn decode_packed<S: Scalar>(bytes: &[u8]) -> Result<(PlanMeta, PackedBlocked<S>), StoreError> {
    let (meta, _version, body, crc) = decode_body::<S>(bytes, ArtifactKind::Packed)?;
    let packed = decode_checked(body, crc, |body| decode_packed_body::<S>(&meta, body))?;
    Ok((meta, packed))
}

fn decode_packed_body<S: Scalar>(
    meta: &PlanMeta,
    body: &[u8],
) -> Result<PackedBlocked<S>, StoreError> {
    let mut r = Reader::new(body, "body section");
    let perm = Permutation::from_forward(r.usize_vec()?)?;
    let diag = r.scalar_vec()?;
    let ptr = r.usize_vec()?;
    let idx = r.usize_vec()?;
    let vals = r.scalar_vec()?;
    let aux = r.usize_vec()?;
    let nblocks = r.usize()?;
    if nblocks != meta.nblocks {
        return Err(StoreError::Malformed(format!(
            "body holds {nblocks} blocks, meta declares {}",
            meta.nblocks
        )));
    }
    let mut blocks = Vec::with_capacity(nblocks.min(body.len()));
    for _ in 0..nblocks {
        let shape = shape_from(r.u8()?)?;
        blocks.push(PackedBlockParts {
            shape,
            rows: r.range()?,
            cols: r.range()?,
            ptr: r.range()?,
            data: r.range()?,
            aux: r.range()?,
        });
    }
    r.finish()?;
    let parts = PackedBlockedParts {
        n: meta.n,
        nnz: meta.nnz,
        depth: meta.depth,
        perm,
        diag,
        ptr,
        idx,
        vals,
        aux,
        blocks,
    };
    Ok(PackedBlocked::from_parts(parts)?)
}
