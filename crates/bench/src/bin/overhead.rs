//! Fault-free supervisor and durability overhead: a supervised
//! single-rung run versus the plain `ExecutionPlan::run`, and a durable
//! (WAL-journaled, checkpointed) run versus plain, on both the annealer
//! and classical paths.
//!
//! The resilience supervisor adds one circuit-breaker admission, one
//! `RunCtx` allocation, a deadline-sliced `CancelToken`, and a handful
//! of journal pushes per run. The acceptance bar is ≤ 2 % overhead on a
//! fault-free run; this harness measures it with wall-clock medians.
//!
//! The durable arms add the full `nck-store` pipeline — an fsynced WAL
//! append per journal event, periodic mid-solve checkpoints, and a
//! final atomic snapshot — against workloads sized like the runs one
//! would actually checkpoint (tens of milliseconds per solve; an fsync
//! on ext4 costs ~100–200 µs, so journaling a microsecond-scale solve
//! is dominated by the disk, not the solver). The acceptance bar is
//! ≤ 5 % fault-free durability overhead, and the measured numbers are
//! emitted to `BENCH_durability.json` for CI trend tracking.
//!
//! Run with: `cargo run --release -p nck-bench --bin overhead`

use nck_anneal::AnnealerDevice;
use nck_bench::{fmt_f, print_table};
use nck_exec::{AnnealerBackend, Backend, ClassicalBackend, ExecutionPlan, Supervisor};
use nck_problems::{Graph, MinVertexCover};
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 21;
/// Durable runs take tens of milliseconds each (they are sized so the
/// solve dominates the fsyncs), so the durability section uses fewer,
/// heavier batches.
const DURABLE_BATCHES: usize = 9;
/// Checkpoint cadence for the durable arms: coarse enough that a
/// 2048-read anneal persists a handful of checkpoints, not dozens.
const DURABLE_CHECKPOINT_INTERVAL: u64 = 512;

/// Wall time (µs per iteration) of `iters` calls to `f`.
fn time_us(iters: usize, base_seed: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        f(base_seed + i as u64);
    }
    t0.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// Interleaved A/B measurement: each batch times both arms
/// back-to-back on the same seeds (order alternating per batch), then
/// the minimum over batches estimates each arm — scheduler noise and
/// machine-load spikes only ever add time, so the fastest batch is the
/// closest to the true cost. Returns (A µs, B µs).
fn interleaved(
    batches: usize,
    iters: usize,
    mut a: impl FnMut(u64),
    mut b: impl FnMut(u64),
) -> (f64, f64) {
    let mut best_a = f64::INFINITY;
    let mut best_b = f64::INFINITY;
    for batch in 0..batches {
        let base = (batch * iters) as u64;
        let (ta, tb) = if batch % 2 == 0 {
            let ta = time_us(iters, base, &mut a);
            let tb = time_us(iters, base, &mut b);
            (ta, tb)
        } else {
            let tb = time_us(iters, base, &mut b);
            let ta = time_us(iters, base, &mut a);
            (ta, tb)
        };
        best_a = best_a.min(ta);
        best_b = best_b.min(tb);
    }
    (best_a, best_b)
}

/// One measured durability arm, for the table and the JSON report.
struct DurableArm {
    backend: &'static str,
    workload: String,
    plain_us: f64,
    durable_us: f64,
}

impl DurableArm {
    fn overhead_pct(&self) -> f64 {
        (self.durable_us / self.plain_us - 1.0) * 100.0
    }
}

fn supervised_section() -> f64 {
    // Min vertex cover on a 12-vertex circulant graph: small enough to
    // iterate thousands of times, large enough that both backends do
    // real work. One shared plan so every arm measures only the
    // backend run (compile and embed caches warmed below).
    let program = MinVertexCover::new(Graph::circulant(12, 4)).program();
    let plan = ExecutionPlan::new(&program);
    let annealer = AnnealerBackend::new(AnnealerDevice::ideal(64), 64);
    let classical = ClassicalBackend::default();
    let sup = Supervisor::default();
    plan.run(&annealer, 0).unwrap();
    plan.run(&classical, 0).unwrap();

    println!("Fault-free supervisor overhead (supervised single-rung ladder vs");
    println!("plain plan.run; best of {BATCHES} interleaved A/B batches per arm):\n");
    let mut rows = Vec::new();
    let mut worst: f64 = 0.0;
    for (name, iters, backend) in [
        ("annealer", 60usize, &annealer as &dyn Backend),
        ("classical", 3000, &classical as &dyn Backend),
    ] {
        let (plain, supervised) = interleaved(
            BATCHES,
            iters,
            |seed| {
                black_box(plan.run(black_box(backend), seed).unwrap());
            },
            |seed| {
                black_box(sup.run(&plan, &[black_box(backend)], seed).unwrap());
            },
        );
        let overhead = (supervised / plain - 1.0) * 100.0;
        worst = worst.max(overhead);
        rows.push(vec![
            name.to_string(),
            fmt_f(plain, 2),
            fmt_f(supervised, 2),
            format!("{overhead:+.2}%"),
        ]);
    }
    print_table(&["backend", "plain (us/run)", "supervised (us/run)", "overhead"], &rows);
    println!("\nworst-case overhead: {worst:+.2}% (acceptance bar: <= 2%)");
    worst
}

/// Time one durable arm: plain `plan.run` versus
/// `Supervisor::run_durable` into a fresh store directory per run
/// (create + journal + checkpoints + snapshot + teardown all counted —
/// that is the whole price of durability, not just the solver delta).
fn durable_arm(
    backend_name: &'static str,
    workload: String,
    iters: usize,
    plan: &ExecutionPlan,
    backend: &dyn Backend,
) -> DurableArm {
    let sup =
        Supervisor { checkpoint_interval: DURABLE_CHECKPOINT_INTERVAL, ..Supervisor::default() };
    let scratch = std::env::temp_dir().join(format!("nck-overhead-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&scratch);
    let (plain_us, durable_us) = interleaved(
        DURABLE_BATCHES,
        iters,
        |seed| {
            black_box(plan.run(black_box(backend), seed).unwrap());
        },
        |seed| {
            let dir = scratch.join(format!("{backend_name}-{seed}"));
            black_box(sup.run_durable(plan, &[black_box(backend)], seed, &dir).unwrap());
            std::fs::remove_dir_all(&dir).unwrap();
        },
    );
    let _ = std::fs::remove_dir_all(&scratch);
    DurableArm { backend: backend_name, workload, plain_us, durable_us }
}

fn durable_section() -> Vec<DurableArm> {
    // The durability arms run workloads sized like runs one would
    // actually checkpoint: a 2048-read anneal (~140 ms) persisting a
    // checkpoint every 512 reads, and an exact branch-and-bound solve
    // (~100 ms) persisting each incumbent improvement. Both journal
    // every supervisor event through the fsynced WAL and finish with
    // an atomic snapshot.
    println!("\nFault-free durability overhead (run_durable vs plain plan.run;");
    println!("best of {DURABLE_BATCHES} interleaved A/B batches per arm):\n");

    let ann_program = MinVertexCover::new(Graph::circulant(12, 4)).program();
    let ann_plan = ExecutionPlan::new(&ann_program);
    let annealer = AnnealerBackend::new(AnnealerDevice::ideal(64), 2048);
    ann_plan.run(&annealer, 0).unwrap();

    let cls_program = MinVertexCover::new(Graph::circulant(56, 16)).program();
    let cls_plan = ExecutionPlan::new(&cls_program);
    let classical = ClassicalBackend::default();
    cls_plan.run(&classical, 0).unwrap();

    let arms = vec![
        durable_arm(
            "annealer",
            "circulant(12,4), 2048 reads, checkpoint every 512".to_string(),
            2,
            &ann_plan,
            &annealer,
        ),
        durable_arm(
            "classical",
            "circulant(56,16), checkpoint per incumbent".to_string(),
            2,
            &cls_plan,
            &classical,
        ),
    ];

    let rows: Vec<Vec<String>> = arms
        .iter()
        .map(|a| {
            vec![
                a.backend.to_string(),
                fmt_f(a.plain_us / 1e3, 2),
                fmt_f(a.durable_us / 1e3, 2),
                format!("{:+.2}%", a.overhead_pct()),
            ]
        })
        .collect();
    print_table(&["backend", "plain (ms/run)", "durable (ms/run)", "overhead"], &rows);
    arms
}

/// Hand-rolled JSON (no serde in the dependency closure): the measured
/// durability arms plus the acceptance verdict, one object per arm.
fn durability_json(arms: &[DurableArm], worst: f64, bar: f64) -> String {
    let mut out = String::from("{\n  \"bench\": \"durability-overhead\",\n  \"arms\": [\n");
    for (i, a) in arms.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"backend\": \"{}\", \"workload\": \"{}\", \"plain_us\": {:.1}, \
             \"durable_us\": {:.1}, \"overhead_pct\": {:.2}}}{}\n",
            a.backend,
            a.workload,
            a.plain_us,
            a.durable_us,
            a.overhead_pct(),
            if i + 1 < arms.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"worst_overhead_pct\": {:.2},\n  \"bar_pct\": {:.1},\n  \"pass\": {}\n}}\n",
        worst,
        bar,
        worst <= bar
    ));
    out
}

fn main() {
    supervised_section();
    let arms = durable_section();

    let worst = arms.iter().map(DurableArm::overhead_pct).fold(0.0f64, f64::max);
    let bar = 5.0;
    println!("\nworst-case durability overhead: {worst:+.2}% (acceptance bar: <= {bar}%)");

    let json = durability_json(&arms, worst, bar);
    let path = "BENCH_durability.json";
    std::fs::write(path, &json).unwrap();
    println!("wrote {path}");
}
