//! Thread-scaling measurement of the parallel candidate-sampling phase
//! (the `fig_scaling_threads` reproduction binary and the
//! `parallel_sampling` Criterion bench).
//!
//! The measured unit is exactly the embarrassingly parallel step of
//! Algorithm 1: weighing **every** candidate edge of the Join Graph by an
//! independent cut-off sampled operator run over the shared evaluation
//! state (`rox_core::estimate_cards`). Setup — document generation,
//! indexing, sample seeding — happens once outside the timed region; the
//! same warmed state is weighed at every thread count, and the resulting
//! weights are checked identical across thread counts before any timing is
//! reported.
//!
//! Note: wall-clock speedup is bounded by the machine. On a single-core
//! container every configuration degenerates to ~1.0×; on an n-core
//! machine the fan-out approaches min(n, candidate count)× for large τ.

use crate::xmark_catalog;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rox_core::{estimate_cards, EvalState, Parallelism, RoxEngine, RoxEnv, RoxOptions};
use rox_datagen::{xmark_query, XmarkConfig};
use rox_joingraph::JoinGraph;
use rox_ops::Cost;
use std::time::{Duration, Instant};

/// Configuration of the thread-scaling experiment.
#[derive(Debug, Clone)]
pub struct ThreadScalingConfig {
    /// XMark document shape.
    pub xmark: XmarkConfig,
    /// Sample size τ for the weighted runs (large values make each
    /// per-edge sampled run coarse enough to amortize fan-out overhead).
    pub tau: usize,
    /// Thread counts to measure (1 is always measured as the baseline).
    pub threads: Vec<usize>,
    /// Timed repetitions per configuration (the minimum is reported).
    pub repeats: usize,
}

impl Default for ThreadScalingConfig {
    fn default() -> Self {
        ThreadScalingConfig {
            xmark: XmarkConfig {
                persons: 3000,
                items: 2500,
                auctions: 2500,
                ..XmarkConfig::default()
            },
            tau: 4096,
            threads: vec![2, 4, 8],
            repeats: 3,
        }
    }
}

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct ThreadPoint {
    /// Worker threads used.
    pub threads: usize,
    /// Best-of-`repeats` wall time of the sampling phase.
    pub wall: Duration,
    /// Speedup over the sequential baseline.
    pub speedup: f64,
}

/// Result of the experiment.
#[derive(Debug, Clone)]
pub struct ThreadScalingResult {
    /// Number of candidate edges weighed per round.
    pub candidate_edges: usize,
    /// Sequential baseline wall time.
    pub sequential: Duration,
    /// Per-thread-count measurements.
    pub points: Vec<ThreadPoint>,
    /// Hardware parallelism of the machine the numbers were taken on.
    pub machine_threads: usize,
    /// Full `run_rox` wall time, sequential.
    pub full_run_sequential: Duration,
    /// Full `run_rox` wall time at the highest measured thread count.
    pub full_run_parallel: Duration,
}

/// A prepared sampling-phase workload: everything up to (but excluding)
/// the candidate weighting, reusable across thread counts.
pub struct SamplingWorkload<'a> {
    state: EvalState<'a>,
    /// The candidate (unexecuted) edges.
    pub edges: Vec<u32>,
    tau: usize,
}

impl<'a> SamplingWorkload<'a> {
    /// Seed per-vertex samples and collect the candidate edge set.
    pub fn prepare(env: &'a RoxEnv, graph: &'a JoinGraph, tau: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = EvalState::new(env, graph);
        for v in graph.vertices() {
            state.seed_sample(v.id, &mut rng, tau);
        }
        let edges = state.unexecuted_edges();
        SamplingWorkload { state, edges, tau }
    }

    /// Weigh every candidate edge with the given worker budget — the timed
    /// unit of the experiment.
    pub fn weigh(&self, par: Parallelism) -> (Vec<Option<f64>>, Cost) {
        let mut cost = Cost::new();
        let ws = estimate_cards(&self.state, &self.edges, self.tau, par, &mut cost);
        (ws, cost)
    }
}

fn best_of(repeats: usize, mut f: impl FnMut() -> Duration) -> Duration {
    (0..repeats.max(1))
        .map(|_| f())
        .min()
        .expect("at least one repeat")
}

/// Run the thread-scaling experiment.
pub fn run(cfg: &ThreadScalingConfig) -> ThreadScalingResult {
    let catalog = xmark_catalog(&cfg.xmark);
    let graph = rox_joingraph::compile_query(&xmark_query("<", 145.0)).unwrap();
    let engine = RoxEngine::new(std::sync::Arc::clone(&catalog));
    let env = engine.session(&graph).unwrap();
    let workload = SamplingWorkload::prepare(&env, &graph, cfg.tau, 42);

    let (baseline_weights, baseline_cost) = workload.weigh(Parallelism::Sequential);
    let sequential = best_of(cfg.repeats, || {
        let t = Instant::now();
        std::hint::black_box(workload.weigh(Parallelism::Sequential));
        t.elapsed()
    });

    let mut points = Vec::new();
    for &n in &cfg.threads {
        let par = Parallelism::Threads(n);
        // Equivalence first: identical weights and cost counters, or the
        // timing is meaningless.
        let (w, c) = workload.weigh(par);
        assert_eq!(w, baseline_weights, "weights diverged at {n} threads");
        assert_eq!(c, baseline_cost, "cost counters diverged at {n} threads");
        let wall = best_of(cfg.repeats, || {
            let t = Instant::now();
            std::hint::black_box(workload.weigh(par));
            t.elapsed()
        });
        points.push(ThreadPoint {
            threads: n,
            wall,
            speedup: sequential.as_secs_f64() / wall.as_secs_f64().max(f64::EPSILON),
        });
    }

    // End-to-end sanity: a full ROX run at the largest thread count,
    // reusing the same warmed environment for both measurements so
    // neither side pays index or base-list construction inside the timed
    // region (RoxOptions::parallelism overrides the env knob either way).
    let max_threads = cfg.threads.iter().copied().max().unwrap_or(1);
    let t = Instant::now();
    let seq_report = rox_core::run_rox_with_env(
        &env,
        &graph,
        RoxOptions {
            tau: cfg.tau.min(512),
            ..Default::default()
        },
    )
    .unwrap();
    let full_run_sequential = t.elapsed();
    let t = Instant::now();
    let par_report = rox_core::run_rox_with_env(
        &env,
        &graph,
        RoxOptions {
            tau: cfg.tau.min(512),
            parallelism: Parallelism::Threads(max_threads),
            ..Default::default()
        },
    )
    .unwrap();
    let full_run_parallel = t.elapsed();
    assert_eq!(seq_report.output, par_report.output);
    assert_eq!(seq_report.executed_order, par_report.executed_order);

    ThreadScalingResult {
        candidate_edges: workload.edges.len(),
        sequential,
        points,
        machine_threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        full_run_sequential,
        full_run_parallel,
    }
}

/// Render the result as an aligned text table.
pub fn render(result: &ThreadScalingResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(
        out,
        "parallel candidate sampling — {} candidate edges, machine parallelism {}",
        result.candidate_edges, result.machine_threads
    )
    .unwrap();
    writeln!(out, "{:>8}  {:>12}  {:>8}", "threads", "wall", "speedup").unwrap();
    writeln!(out, "{:>8}  {:>12.3?}  {:>8.2}x", 1, result.sequential, 1.0).unwrap();
    for p in &result.points {
        writeln!(
            out,
            "{:>8}  {:>12.3?}  {:>8.2}x",
            p.threads, p.wall, p.speedup
        )
        .unwrap();
    }
    writeln!(
        out,
        "full run_rox: sequential {:.3?}, {} threads {:.3?}",
        result.full_run_sequential,
        result.points.last().map(|p| p.threads).unwrap_or(1),
        result.full_run_parallel
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_run_reports_consistent_weights() {
        // Tiny configuration: correctness of the harness, not performance.
        let cfg = ThreadScalingConfig {
            xmark: XmarkConfig {
                persons: 60,
                items: 50,
                auctions: 50,
                ..Default::default()
            },
            tau: 32,
            threads: vec![2, 4],
            repeats: 1,
        };
        let r = run(&cfg);
        assert!(r.candidate_edges > 0);
        assert_eq!(r.points.len(), 2);
        assert!(r.sequential > Duration::ZERO);
        let table = render(&r);
        assert!(table.contains("speedup"));
    }
}
