//! Emit `BENCH_sptrsv.json`: median ns/solve per kernel × matrix on the
//! solve hot path (preprocessing excluded — the repeated-solve regime of
//! Table 5). The rows are the serial reference, the level-set and
//! cuSPARSE-like engine schedules over the whole matrix, and the recblock
//! plan untuned and tuned; each matrix also records a per-stage breakdown
//! of one traced recblock solve.
//!
//! The corpus is level-heavy on purpose: hundreds of levels, each wide
//! enough to run as a parallel launch, so per-level synchronisation is what
//! the schedules compete on. `chain_5k` is the opposite extreme: one row per
//! level, where every schedule sits on the same dependency-chain floor as
//! the serial loop and can only match it.
//!
//! Run with `cargo run --release -p recblock-bench --bin bench_sptrsv`.
//!
//! `--gate <baseline.json>` instead re-measures the two cheapest corpus
//! matrices and exits nonzero if the recblock solve regressed more than 25%
//! against the committed baseline — the CI perf gate. Nothing is written.
//!
//! `--tune-smoke` is the closed-loop CI job: tune the cheap corpus subset
//! offline, persist any winner through the store, reload it, and exit
//! nonzero if the tuned plan solves worse than the untuned one beyond the
//! gate tolerance — the autotuner must never cost more than it saves.

use recblock::blocked::{BlockedOptions, BlockedTri, SolveWorkspace};
use recblock::explain::BlockDecisionKind;
use recblock::{tune_blocked, TuneOptions};
use recblock_kernels::sptrsv::{serial_csr, CusparseLikeSolver, LevelSetSolver};
use recblock_kernels::trace::{EventKind, SolveTrace};
use recblock_kernels::ExecPool;
use recblock_matrix::levelset::LevelSets;
use recblock_matrix::{generate, Csr};
use recblock_store::{PlanKey, PlanStore};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Regression factor versus the committed baseline that fails the gate.
const GATE_TOLERANCE: f64 = 1.25;

const WARMUP: usize = 3;
const SAMPLES: usize = 15;
const TARGET_SAMPLE: Duration = Duration::from_millis(2);

/// Median nanoseconds per call of `f`, measured over [`SAMPLES`] batches
/// sized so each batch runs at least [`TARGET_SAMPLE`].
fn median_ns(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_nanos().max(1);
    let per_sample = (TARGET_SAMPLE.as_nanos() / once).clamp(1, 10_000) as usize;
    for _ in 0..WARMUP {
        f();
    }
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_sample {
                f();
            }
            t.elapsed().as_nanos() as f64 / per_sample as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn corpus() -> Vec<(&'static str, Csr<f64>)> {
    vec![
        // 250 levels × 320 rows: deep AND wide — every level is a parallel
        // launch.
        (
            "deep_layered_80k",
            generate::layered::<f64>(80_000, 250, 2.5, generate::LayerShape::Uniform, 4),
        ),
        // 100 levels × 300 rows: moderate depth, same regime.
        (
            "layered_30k_100",
            generate::layered::<f64>(30_000, 100, 3.0, generate::LayerShape::Uniform, 5),
        ),
        // Pure chain: one row per level, the fully serial extreme — parity
        // with the serial loop is the best any schedule can do here.
        ("chain_5k", generate::chain::<f64>(5_000, 6)),
        // Shallow, wide control case.
        ("kkt_20k", generate::kkt_like::<f64>(20_000, 8_000, 4, 1)),
    ]
}

/// The subset of the corpus cheap enough to re-measure on every CI run.
fn gate_corpus() -> Vec<(&'static str, Csr<f64>)> {
    corpus().into_iter().filter(|(name, _)| *name == "chain_5k" || *name == "kkt_20k").collect()
}

struct MatrixReport {
    name: &'static str,
    n: usize,
    nnz: usize,
    nlevels: usize,
    /// Engine synchronisation scheme of the recblock plan's level-set
    /// blocks: `"p2p"`, `"level-sync"`, or `"none"` when no block runs an
    /// engine schedule.
    schedule_mode: &'static str,
    /// `true` when the autotuner found a candidate that beat the incumbent
    /// (the `recblock_tuned` row then measures the retuned plan).
    tuned: bool,
    /// Winning grid candidate, or `"incumbent"` when none cleared the
    /// hysteresis margin.
    tune_winner: &'static str,
    kernels: Vec<(&'static str, f64)>,
    /// `(stage label, events, total ns)` from one traced `recblock` solve,
    /// largest total first. Collected in a separate pass so the timing
    /// loops above run with tracing off.
    trace: Vec<(String, u64, u64)>,
}

/// Run one traced blocked solve and fold the event stream into per-stage
/// totals. `BlockTri` events are attributed to the kernel the selector
/// chose for that block (via the plan's [`recblock::SelectionReport`]), so the
/// breakdown reads `block_tri:level-set` rather than an opaque block index.
fn trace_blocked_solve(
    blocked: &BlockedTri<f64>,
    b: &[f64],
    x: &mut [f64],
    ws: &mut SolveWorkspace<f64>,
) -> Vec<(String, u64, u64)> {
    SolveTrace::enable();
    SolveTrace::reset();
    blocked.solve_into(b, x, ws).unwrap();
    let events = SolveTrace::drain();
    SolveTrace::disable();

    let report = blocked.selection_report();
    let mut agg: Vec<(String, u64, u64)> = Vec::new();
    for e in &events {
        let label = match e.kind {
            EventKind::BlockTri => {
                let kernel = report
                    .blocks
                    .iter()
                    .find(|d| d.index == e.id as usize)
                    .map(|d| d.kernel_name())
                    .unwrap_or("unknown");
                format!("block_tri:{kernel}")
            }
            EventKind::BlockSquare => {
                let kernel = report
                    .blocks
                    .iter()
                    .find(|d| d.index == e.id as usize)
                    .map(|d| d.kernel_name())
                    .unwrap_or("unknown");
                format!("block_square:{kernel}")
            }
            k => k.name().to_string(),
        };
        match agg.iter_mut().find(|(l, _, _)| *l == label) {
            Some(slot) => {
                slot.1 += 1;
                slot.2 += e.ns;
            }
            None => agg.push((label, 1, e.ns)),
        }
    }
    agg.sort_by_key(|a| std::cmp::Reverse(a.2));
    agg
}

/// Build the recblock plan the way `main` and the gate both measure it:
/// the production-default adaptive depth rule, exactly what `planctl` and
/// the serve tier produce for an untuned matrix.
fn build_blocked(l: &Csr<f64>) -> BlockedTri<f64> {
    BlockedTri::build(l, &BlockedOptions::default()).unwrap()
}

/// Dominant engine schedule mode across the plan's tri blocks.
fn plan_schedule_mode(blocked: &BlockedTri<f64>) -> &'static str {
    let mut mode = "none";
    for b in blocked.selection_report().tri_blocks() {
        if let BlockDecisionKind::Tri { schedule_mode: Some(m), .. } = &b.kind {
            if *m == "p2p" {
                return "p2p";
            }
            mode = m;
        }
    }
    mode
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Pull `kernels.<kernel>` for matrix `name` out of the committed baseline
/// JSON. The file is written by this binary, so the shape is known; a tiny
/// scan keeps the bench crate dependency-free.
fn baseline_ns(json: &str, name: &str, kernel: &str) -> Option<f64> {
    let entry = json.split("\"name\": ").find(|s| s.starts_with(&format!("\"{name}\"")))?;
    let entry = &entry[..entry.find('\n').unwrap_or(entry.len())];
    let key = format!("\"{kernel}\": ");
    let at = entry.find(&key)? + key.len();
    let num: String =
        entry[at..].chars().take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-').collect();
    num.parse().ok()
}

/// CI perf gate: re-measure the cheap corpus subset and compare the
/// recblock solve against the committed baseline. Exits 1 on regression.
fn run_gate(baseline_path: &str) {
    let json = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
    let mut failed = false;
    for (name, l) in gate_corpus() {
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i % 17) as f64 - 8.0).collect();
        let mut x = vec![0.0f64; n];
        let blocked = build_blocked(&l);
        let mut ws = SolveWorkspace::new();
        let measured = median_ns(|| blocked.solve_into(&b, black_box(&mut x), &mut ws).unwrap());
        let Some(base) = baseline_ns(&json, name, "recblock") else {
            println!("gate {name}: no recblock baseline in {baseline_path}, skipping");
            continue;
        };
        let ratio = measured / base;
        let verdict = if ratio > GATE_TOLERANCE { "FAIL" } else { "ok" };
        println!(
            "gate {name}: recblock {measured:.0} ns vs baseline {base:.0} ns \
             ({ratio:.2}x, limit {GATE_TOLERANCE:.2}x) {verdict}"
        );
        failed |= ratio > GATE_TOLERANCE;
    }
    if failed {
        println!("bench gate FAILED: recblock regressed more than {GATE_TOLERANCE:.2}x");
        std::process::exit(1);
    }
    println!("bench gate passed");
}

/// CI tuner smoke: tune the cheap corpus subset offline, persist the winner
/// through the store, reload it, and require the tuned plan to solve no
/// worse than the untuned one beyond [`GATE_TOLERANCE`]. Exits 1 when the
/// autotuner made anything slower — the closed loop must never regress.
fn run_tune_smoke() {
    let dir = std::env::temp_dir().join(format!("rb-tune-smoke-{}", std::process::id()));
    let store = PlanStore::open(&dir).expect("open smoke store");
    let mut failed = false;
    for (name, l) in gate_corpus() {
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i % 17) as f64 - 8.0).collect();
        let mut x = vec![0.0f64; n];
        let blocked = build_blocked(&l);
        let mut ws = SolveWorkspace::new();
        let untuned = median_ns(|| blocked.solve_into(&b, black_box(&mut x), &mut ws).unwrap());

        let report = tune_blocked(&blocked, &b, &TuneOptions::default()).expect("tune");
        let key = PlanKey::of(&l);
        let loaded = match report.winner_tune() {
            Some(win) => {
                // Round-trip the winner through the store: what CI measures
                // is the plan a later process would actually load.
                let retuned = blocked.retuned(win).expect("retune");
                store.save(&retuned, &key, 0.0).expect("persist tuned plan");
                let back = store.load::<f64>(&key).expect("reload").expect("plan just saved");
                assert_eq!(back.blocked.tune(), win, "store must round-trip the tuned params");
                Some(back.blocked)
            }
            None => None,
        };
        let plan = loaded.as_ref().unwrap_or(&blocked);
        let tuned = median_ns(|| plan.solve_into(&b, black_box(&mut x), &mut ws).unwrap());

        let ratio = tuned / untuned;
        let verdict = if ratio > GATE_TOLERANCE { "FAIL" } else { "ok" };
        println!(
            "tune-smoke {name}: winner {} — untuned {untuned:.0} ns vs tuned {tuned:.0} ns \
             ({ratio:.2}x, limit {GATE_TOLERANCE:.2}x) {verdict}",
            report.winner_outcome().map_or("incumbent", |o| o.name),
        );
        failed |= ratio > GATE_TOLERANCE;
    }
    let _ = std::fs::remove_dir_all(&dir);
    if failed {
        println!("tuner smoke FAILED: a tuned plan regressed more than {GATE_TOLERANCE:.2}x");
        std::process::exit(1);
    }
    println!("tuner smoke passed");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 3 && args[1] == "--gate" {
        run_gate(&args[2]);
        return;
    }
    if args.len() == 2 && args[1] == "--tune-smoke" {
        run_tune_smoke();
        return;
    }
    let mut reports = Vec::new();
    for (name, l) in corpus() {
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i % 17) as f64 - 8.0).collect();
        let mut x = vec![0.0f64; n];
        let levels = LevelSets::analyse(&l).unwrap();
        let nlevels = levels.nlevels();
        let mut kernels: Vec<(&'static str, f64)> = Vec::new();

        kernels.push((
            "serial",
            median_ns(|| {
                black_box(serial_csr(&l, &b).unwrap());
            }),
        ));

        let ls = LevelSetSolver::with_levels(l.clone(), levels.clone()).unwrap();
        kernels
            .push(("levelset_engine", median_ns(|| ls.solve_into(&b, black_box(&mut x)).unwrap())));

        let cu = CusparseLikeSolver::with_levels(l.clone(), levels).unwrap();
        kernels.push((
            "cusparse_like_engine",
            median_ns(|| cu.solve_into(&b, black_box(&mut x)).unwrap()),
        ));

        let blocked = build_blocked(&l);
        let schedule_mode = plan_schedule_mode(&blocked);
        let mut ws = SolveWorkspace::new();
        kernels.push((
            "recblock",
            median_ns(|| blocked.solve_into(&b, black_box(&mut x), &mut ws).unwrap()),
        ));

        // Closed-loop pass: tune the plan offline and measure what a
        // post-`planctl tune` load would run. When no candidate clears the
        // hysteresis margin the incumbent is re-measured, so the row always
        // exists and the gate can compare tuned against untuned.
        let report = tune_blocked(&blocked, &b, &TuneOptions::default()).unwrap();
        let retuned = report.winner_tune().map(|w| blocked.retuned(w).unwrap());
        let measured = retuned.as_ref().unwrap_or(&blocked);
        kernels.push((
            "recblock_tuned",
            median_ns(|| measured.solve_into(&b, black_box(&mut x), &mut ws).unwrap()),
        ));
        let tuned = retuned.is_some();
        let tune_winner = report.winner_outcome().map_or("incumbent", |o| o.name);

        // Separate traced pass, after every timing loop: the medians above
        // are measured with tracing disabled.
        let trace = trace_blocked_solve(&blocked, &b, &mut x, &mut ws);

        println!(
            "{name}: n={n} nnz={} levels={nlevels} schedule_mode={schedule_mode} \
             tuned={tuned} ({tune_winner})",
            l.nnz()
        );
        for (k, ns) in &kernels {
            println!("  {k:<22} {:>12.0} ns/solve", ns);
        }
        println!("  recblock stage breakdown (one traced solve):");
        for (label, count, ns) in &trace {
            println!("    {label:<28} {count:>5} events {ns:>12} ns");
        }

        reports.push(MatrixReport {
            name,
            n,
            nnz: l.nnz(),
            nlevels,
            schedule_mode,
            tuned,
            tune_winner,
            kernels,
            trace,
        });
    }

    let mut json = format!(
        "{{\n  \"unit\": \"ns_per_solve\",\n  \"threads\": {},\n  \"git_rev\": \"{}\",\n  \
         \"matrices\": [\n",
        ExecPool::global().concurrency(),
        git_rev()
    );
    for (mi, r) in reports.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"n\": {}, \"nnz\": {}, \"nlevels\": {}, \
             \"schedule_mode\": \"{}\", \"tuned\": {}, \"tune_winner\": \"{}\", \"kernels\": {{",
            r.name, r.n, r.nnz, r.nlevels, r.schedule_mode, r.tuned, r.tune_winner
        );
        for (ki, (k, ns)) in r.kernels.iter().enumerate() {
            let _ = write!(
                json,
                "\"{}\": {:.1}{}",
                k,
                ns,
                if ki + 1 < r.kernels.len() { ", " } else { "" }
            );
        }
        let _ = write!(json, "}}, \"trace\": {{");
        for (ti, (label, count, ns)) in r.trace.iter().enumerate() {
            let _ = write!(
                json,
                "\"{}\": {{\"events\": {}, \"ns\": {}}}{}",
                label,
                count,
                ns,
                if ti + 1 < r.trace.len() { ", " } else { "" }
            );
        }
        let _ = writeln!(json, "}}}}{}", if mi + 1 < reports.len() { "," } else { "" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_sptrsv.json", &json).expect("write BENCH_sptrsv.json");
    println!("\nwrote BENCH_sptrsv.json");
}
