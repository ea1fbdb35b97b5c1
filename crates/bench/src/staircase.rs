//! Staircase-kernel microbenchmarks: the vectorized Merge (gallop) and
//! Bitset kernels against the Probe kernel they replace, plus the
//! end-to-end anchors the kernels serve (the `bench_staircase` binary,
//! which emits the machine-readable `BENCH_staircase.json`).
//!
//! Three measured units, all over one generated XMark document:
//!
//! 1. **Per-axis kernel throughput** — identical `(ctx, cands)` inputs
//!    run through every applicable [`StepKernel`]; outputs are asserted
//!    pair-for-pair identical (and cost counters equal — the kernels'
//!    charge-parity contract) before any timing is reported. The Bitset
//!    kernel runs with a prebuilt candidate set, which is exactly what
//!    the evaluation state's scratch arena hands it in production.
//! 2. **Fig-8 anchor** — one full `run_rox` of the paper's Q1: its
//!    *work counters* are kernel-independent by construction (the
//!    charge-parity contract), so the values printed here must equal the
//!    pre-vectorization seed's; wall time is what the kernels improve.
//! 3. **Warm-engine latency** — cold vs plan-replay latency against a
//!    [`RoxEngine`]; compared against the committed pre-vectorization
//!    baseline (`BENCH_engine.json`, PR 4: 15.30 ms warm replay at the
//!    default document shape).

use crate::xmark_catalog;
use rox_core::{PlanReuse, RoxEngine, RoxOptions};
use rox_datagen::{xmark_query, XmarkConfig};
use rox_index::{ElementIndex, PreSet};
use rox_ops::{step_join_kernel, Axis, Cost, StepKernel, StepScratch};
use rox_xmldb::{Document, Pre};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Committed warm-replay latency of the pre-vectorization engine
/// (`BENCH_engine.json` as of the engine-layer PR) at the default
/// document shape — the baseline the `warm_replay_ms` of a default run
/// is compared against. Meaningless for `--smoke` shapes.
pub const BASELINE_WARM_REPLAY_MS: f64 = 15.30;

/// Configuration of the staircase benchmarks.
#[derive(Debug, Clone)]
pub struct StaircaseBenchConfig {
    /// XMark document shape.
    pub xmark: XmarkConfig,
    /// Kernel invocations per timed measurement.
    pub rounds: usize,
    /// Timed repetitions per measurement (the minimum is reported).
    pub repeats: usize,
}

impl Default for StaircaseBenchConfig {
    fn default() -> Self {
        StaircaseBenchConfig {
            xmark: XmarkConfig {
                persons: 3000,
                items: 2500,
                auctions: 2500,
                ..XmarkConfig::default()
            },
            rounds: 20,
            repeats: 3,
        }
    }
}

impl StaircaseBenchConfig {
    /// A seconds-scale configuration for CI smoke runs.
    pub fn smoke() -> Self {
        StaircaseBenchConfig {
            xmark: XmarkConfig {
                persons: 300,
                items: 250,
                auctions: 250,
                ..XmarkConfig::default()
            },
            rounds: 5,
            repeats: 2,
        }
    }
}

/// One axis × kernel measurement.
#[derive(Debug, Clone)]
pub struct KernelPoint {
    /// Kernel measured.
    pub kernel: StepKernel,
    /// Wall time for `rounds` invocations.
    pub wall: Duration,
    /// `probe wall / this wall`.
    pub speedup_vs_probe: f64,
}

/// One per-axis benchmark: identical inputs through every applicable
/// kernel.
#[derive(Debug, Clone)]
pub struct AxisBench {
    /// The axis (as executed — context side fixed by the input choice).
    pub axis: Axis,
    /// Context nodes.
    pub ctx_len: usize,
    /// Candidate nodes.
    pub cands_len: usize,
    /// Result pairs per invocation.
    pub pairs: usize,
    /// Probe-kernel wall time (the before side).
    pub probe_wall: Duration,
    /// The vectorized kernels (Merge where applicable, Bitset always).
    pub kernels: Vec<KernelPoint>,
}

impl AxisBench {
    /// Best speedup over the probe kernel across the measured kernels.
    pub fn best_speedup(&self) -> f64 {
        self.kernels
            .iter()
            .map(|k| k.speedup_vs_probe)
            .fold(0.0, f64::max)
    }
}

/// Everything the `bench_staircase` binary reports.
#[derive(Debug, Clone)]
pub struct StaircaseBenchResult {
    /// Nodes in the generated document.
    pub nodes: usize,
    /// Per-axis kernel measurements.
    pub axes: Vec<AxisBench>,
    /// Fig-8 anchor: Q1 execution work (kernel-independent).
    pub fig8_exec_work: u64,
    /// Fig-8 anchor: Q1 sampling work (kernel-independent).
    pub fig8_sample_work: u64,
    /// Fig-8 anchor: Q1 output rows.
    pub fig8_rows: usize,
    /// Fig-8 anchor: Q1 wall time (what the kernels improve).
    pub fig8_wall: Duration,
    /// Cold engine latency (fresh engine, first query).
    pub cold: Duration,
    /// Warm plan-replay latency.
    pub warm_replay: Duration,
}

fn best_of(repeats: usize, mut f: impl FnMut() -> Duration) -> Duration {
    (0..repeats.max(1))
        .map(|_| f())
        .min()
        .expect("at least one repeat")
}

fn lookup(doc: &Document, idx: &ElementIndex, name: &str) -> Vec<Pre> {
    doc.interner()
        .get(name)
        .map(|sym| idx.lookup(sym).to_vec())
        .unwrap_or_default()
}

/// Time one kernel for `rounds` invocations on fixed inputs.
#[allow(clippy::too_many_arguments)]
fn time_kernel(
    doc: &Document,
    axis: Axis,
    ctx: &[Pre],
    cands: &[Pre],
    kernel: StepKernel,
    scratch: StepScratch<'_>,
    cfg: &StaircaseBenchConfig,
) -> Duration {
    best_of(cfg.repeats, || {
        let t = Instant::now();
        for _ in 0..cfg.rounds {
            let mut cost = Cost::new();
            let out = step_join_kernel(doc, axis, ctx, cands, None, kernel, scratch, &mut cost);
            std::hint::black_box(&out.pairs);
        }
        t.elapsed()
    })
}

/// Measure one axis: probe vs the applicable vectorized kernels, with an
/// equivalence check (pairs and cost counters) before any timing.
fn bench_axis(
    doc: &Document,
    axis: Axis,
    ctx: &[Pre],
    cands: &[Pre],
    cfg: &StaircaseBenchConfig,
) -> AxisBench {
    let universe = cands.last().map_or(0, |&p| p as usize + 1);
    let set = PreSet::from_nodes(universe, cands);
    let cached = StepScratch {
        cands_set: Some(&set),
    };
    let plain = StepScratch::default();
    let mut probe_cost = Cost::new();
    let expect = step_join_kernel(
        doc,
        axis,
        ctx,
        cands,
        None,
        StepKernel::Probe,
        plain,
        &mut probe_cost,
    );
    let mut kernels = Vec::new();
    let applicable: &[StepKernel] = if matches!(axis, Axis::Child | Axis::Attribute) {
        &[StepKernel::Merge, StepKernel::Bitset]
    } else {
        &[StepKernel::Bitset]
    };
    for &kernel in applicable {
        let scratch = if kernel == StepKernel::Bitset {
            cached
        } else {
            plain
        };
        let mut cost = Cost::new();
        let got = step_join_kernel(doc, axis, ctx, cands, None, kernel, scratch, &mut cost);
        assert_eq!(got.pairs, expect.pairs, "{axis:?} {kernel:?} diverged");
        assert_eq!(cost, probe_cost, "{axis:?} {kernel:?} charges diverged");
        kernels.push((kernel, scratch));
    }
    let probe_wall = time_kernel(doc, axis, ctx, cands, StepKernel::Probe, plain, cfg);
    let kernels = kernels
        .into_iter()
        .map(|(kernel, scratch)| {
            let wall = time_kernel(doc, axis, ctx, cands, kernel, scratch, cfg);
            KernelPoint {
                kernel,
                wall,
                speedup_vs_probe: probe_wall.as_secs_f64() / wall.as_secs_f64().max(f64::EPSILON),
            }
        })
        .collect();
    AxisBench {
        axis,
        ctx_len: ctx.len(),
        cands_len: cands.len(),
        pairs: expect.pairs.len(),
        probe_wall,
        kernels,
    }
}

/// Run the staircase benchmarks.
pub fn run(cfg: &StaircaseBenchConfig) -> StaircaseBenchResult {
    let catalog = xmark_catalog(&cfg.xmark);
    let doc_id = catalog.resolve("xmark.xml").expect("generated document");
    let doc = catalog.doc(doc_id);
    let idx = ElementIndex::build(&doc);

    // ---- 1. Per-axis kernels on production-shaped inputs.
    let auctions = lookup(&doc, &idx, "open_auction");
    let bidders = lookup(&doc, &idx, "bidder");
    let personrefs = lookup(&doc, &idx, "personref");
    let persons = lookup(&doc, &idx, "person");
    let attrs = idx.attributes().to_vec();
    let axes = vec![
        // auction/bidder: the classic forward child step.
        bench_axis(&doc, Axis::Child, &auctions, &bidders, cfg),
        // person/@*: attribute step.
        bench_axis(&doc, Axis::Attribute, &persons, &attrs, cfg),
        // bidder/parent::open_auction: one probe per context.
        bench_axis(&doc, Axis::Parent, &bidders, &auctions, cfg),
        // personref/ancestor::open_auction: the walk the range prune and
        // bitset target — every context chases parents to the root.
        bench_axis(&doc, Axis::Ancestor, &personrefs, &auctions, cfg),
    ];

    // ---- 2. Fig-8 anchor: Q1, work counters kernel-independent.
    let graph = rox_joingraph::compile_query(&xmark_query("<", 100.0)).unwrap();
    let t = Instant::now();
    let report = rox_core::run_rox(Arc::clone(&catalog), &graph, RoxOptions::default()).unwrap();
    let fig8_wall = t.elapsed();

    // ---- 3. Warm-engine latency (the serving loop's plan replay).
    let reuse = RoxOptions {
        plan_reuse: PlanReuse::ReuseValidated,
        ..Default::default()
    };
    let cold = best_of(cfg.repeats, || {
        let fresh = RoxEngine::new(Arc::clone(&catalog));
        let t = Instant::now();
        let run = fresh.run(&graph, reuse).unwrap();
        let wall = t.elapsed();
        assert_eq!(run.output, report.output, "cold engine output diverged");
        wall
    });
    let engine = RoxEngine::new(Arc::clone(&catalog));
    // Seed the plan cache.
    engine.run(&graph, reuse).unwrap();
    let warm_replay = best_of(cfg.repeats, || {
        let t = Instant::now();
        let run = engine.run(&graph, reuse).unwrap();
        let wall = t.elapsed();
        assert!(run.plan_cache_hit, "warm replay missed the plan cache");
        assert_eq!(run.output, report.output, "warm replay output diverged");
        wall
    });

    StaircaseBenchResult {
        nodes: doc.node_count(),
        axes,
        fig8_exec_work: report.exec_cost.total(),
        fig8_sample_work: report.sample_cost.total(),
        fig8_rows: report.output.len(),
        fig8_wall,
        cold,
        warm_replay,
    }
}

/// Render the result as the `BENCH_staircase.json` document (hand-rolled
/// — the workspace is dependency-free by policy).
pub fn to_json(cfg: &StaircaseBenchConfig, r: &StaircaseBenchResult) -> String {
    let axis_rows: Vec<String> = r
        .axes
        .iter()
        .map(|a| {
            let kernels: Vec<String> = a
                .kernels
                .iter()
                .map(|k| {
                    format!(
                        "{{\"kernel\": \"{:?}\", \"wall_us\": {:.1}, \"speedup_vs_probe\": {:.2}}}",
                        k.kernel,
                        k.wall.as_secs_f64() * 1e6,
                        k.speedup_vs_probe
                    )
                })
                .collect();
            format!(
                "{{\"axis\": \"{:?}\", \"ctx\": {}, \"cands\": {}, \"pairs\": {}, \"probe_wall_us\": {:.1}, \"kernels\": [{}]}}",
                a.axis,
                a.ctx_len,
                a.cands_len,
                a.pairs,
                a.probe_wall.as_secs_f64() * 1e6,
                kernels.join(", ")
            )
        })
        .collect();
    format!(
        "{{\n  \"machine\": {},\n  \"config\": {{\"persons\": {}, \"items\": {}, \"auctions\": {}, \"rounds\": {}, \"repeats\": {}}},\n  \"nodes\": {},\n  \"axis_kernels\": [\n    {}\n  ],\n  \"fig8_anchor\": {{\"exec_work\": {}, \"sample_work\": {}, \"rows\": {}, \"wall_ms\": {:.2}}},\n  \"engine_latency\": {{\"cold_ms\": {:.2}, \"warm_replay_ms\": {:.2}, \"baseline_warm_replay_ms\": {:.2}}}\n}}\n",
        crate::machine_json(),
        cfg.xmark.persons,
        cfg.xmark.items,
        cfg.xmark.auctions,
        cfg.rounds,
        cfg.repeats,
        r.nodes,
        axis_rows.join(",\n    "),
        r.fig8_exec_work,
        r.fig8_sample_work,
        r.fig8_rows,
        r.fig8_wall.as_secs_f64() * 1e3,
        r.cold.as_secs_f64() * 1e3,
        r.warm_replay.as_secs_f64() * 1e3,
        BASELINE_WARM_REPLAY_MS,
    )
}

/// Render a human-readable summary table.
pub fn render(r: &StaircaseBenchResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(
        out,
        "{:>10}  {:>7}  {:>7}  {:>7}  {:>12}  kernels",
        "axis", "ctx", "cands", "pairs", "probe"
    )
    .unwrap();
    for a in &r.axes {
        let kernels: Vec<String> = a
            .kernels
            .iter()
            .map(|k| format!("{:?} {:?} ({:.2}x)", k.kernel, k.wall, k.speedup_vs_probe))
            .collect();
        writeln!(
            out,
            "{:>10}  {:>7}  {:>7}  {:>7}  {:>12.3?}  {}",
            format!("{:?}", a.axis),
            a.ctx_len,
            a.cands_len,
            a.pairs,
            a.probe_wall,
            kernels.join("  ")
        )
        .unwrap();
    }
    writeln!(
        out,
        "fig8 anchor  exec work {}  sample work {}  rows {}  wall {:.3?}",
        r.fig8_exec_work, r.fig8_sample_work, r.fig8_rows, r.fig8_wall
    )
    .unwrap();
    writeln!(
        out,
        "engine       cold {:.3?}  warm-replay {:.3?}  (baseline {:.2} ms)",
        r.cold, r.warm_replay, BASELINE_WARM_REPLAY_MS
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_consistent() {
        let cfg = StaircaseBenchConfig {
            xmark: XmarkConfig::tiny(),
            rounds: 2,
            repeats: 1,
        };
        let r = run(&cfg);
        assert_eq!(r.axes.len(), 4);
        for a in &r.axes {
            assert!(!a.kernels.is_empty(), "{:?} measured no kernels", a.axis);
        }
        let json = to_json(&cfg, &r);
        assert!(json.contains("\"axis_kernels\""));
        assert!(json.contains("\"fig8_anchor\""));
        assert!(json.contains("\"engine_latency\""));
        let table = render(&r);
        assert!(table.contains("fig8 anchor"));
    }
}
