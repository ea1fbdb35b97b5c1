//! Open-loop tail-latency serving benchmark (the `bench_serving` binary,
//! which emits the machine-readable `BENCH_serving.json`).
//!
//! A single dispatcher thread fires queries at a configured **arrival
//! rate** (exponential inter-arrival gaps — a Poisson process) against one
//! shared [`RoxEngine`], picking each query's shape from a **Zipf**
//! distribution over the shape set, and never waits for completions:
//! submissions go through the non-blocking [`RoxEngine::try_submit`]
//! admission path and come back as [`EngineTicket`]s that are drained
//! after the arrival window closes. Because the arrival clock never stops,
//! queueing delay shows up in the measured latency instead of silently
//! throttling the load — the *coordinated-omission*-free setup closed-loop
//! harnesses (like `bench_engine`'s QPS loop) cannot provide.
//!
//! Per-job latency is `finished_at − submitted_at`, where `finished_at` is
//! stamped by the worker the moment the query completes (see
//! [`TicketOutcome`](rox_core::TicketOutcome)) — collection lag in the dispatcher does not inflate
//! the tail. Reported per scenario: p50/p90/p99/p999/mean/max latency,
//! offered vs achieved QPS, admission-queue depth (sampled at every
//! arrival), and the rejection rate produced by the bounded admission
//! queue ([`RoxOptions::max_queued`]).
//!
//! Two committed scenarios: **steady** (arrival rate below the engine's
//! capacity; queue stays shallow, rejections at zero) and **overload**
//! (arrival rate above capacity with a small admission bound; the queue
//! saturates and the engine sheds load with
//! [`ServeError::Overloaded`] instead of buffering unboundedly).

use crate::xmark_catalog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rox_core::{EngineTicket, PlanReuse, RoxEngine, RoxOptions, ServeError};
use rox_datagen::{xmark_query, XmarkConfig};
use rox_joingraph::JoinGraph;
use rox_ops::Relation;
use rox_par::{Parallelism, WorkerPool};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload shared by every scenario of one `bench_serving` run.
#[derive(Debug, Clone)]
pub struct ServingBenchConfig {
    /// XMark document shape.
    pub xmark: XmarkConfig,
    /// Distinct query shapes (Q1 variants, as in `bench_engine`).
    pub queries: usize,
    /// Sample size τ for the plan-seeding runs.
    pub tau: usize,
    /// Zipf skew `s` over the shape ranks (weight of rank `k` is
    /// `1/k^s`); `1.1` gives the classic hot-head/long-tail mix.
    pub zipf_s: f64,
    /// Worker threads in the engine's pool.
    pub workers: usize,
    /// RNG seed for arrivals and shape picks.
    pub seed: u64,
}

impl Default for ServingBenchConfig {
    fn default() -> Self {
        ServingBenchConfig {
            xmark: XmarkConfig {
                persons: 3000,
                items: 2500,
                auctions: 2500,
                ..XmarkConfig::default()
            },
            queries: 6,
            tau: 100,
            zipf_s: 1.1,
            workers: Parallelism::Auto.threads().max(2),
            seed: 42,
        }
    }
}

impl ServingBenchConfig {
    /// A sub-second configuration for CI smoke runs.
    pub fn smoke() -> Self {
        ServingBenchConfig {
            xmark: XmarkConfig {
                persons: 300,
                items: 250,
                auctions: 250,
                ..XmarkConfig::default()
            },
            queries: 3,
            tau: 64,
            ..Default::default()
        }
    }

    /// The query shapes — same Q1-variant family as `bench_engine`.
    pub fn graphs(&self) -> Vec<JoinGraph> {
        (0..self.queries.max(1))
            .map(|i| {
                let threshold = 100.0 + 15.0 * i as f64;
                rox_joingraph::compile_query(&xmark_query("<", threshold)).unwrap()
            })
            .collect()
    }
}

/// One traffic pattern fired at the engine.
#[derive(Debug, Clone)]
pub struct ServingScenario {
    /// Scenario label (`steady`, `overload`, ...).
    pub name: &'static str,
    /// Open-loop arrival rate in queries per second.
    pub arrival_qps: f64,
    /// Length of the arrival window.
    pub duration: Duration,
    /// Admission-queue bound handed to [`RoxOptions::max_queued`].
    pub max_queued: Option<usize>,
}

impl ServingScenario {
    /// Arrivals comfortably below a single warm replay stream's capacity.
    pub fn steady(smoke: bool) -> Self {
        ServingScenario {
            name: "steady",
            arrival_qps: 100.0,
            duration: Duration::from_millis(if smoke { 400 } else { 3000 }),
            max_queued: Some(512),
        }
    }

    /// Arrivals well above capacity behind a small admission bound — the
    /// queue saturates and load is shed via `Overloaded`.
    pub fn overload(smoke: bool) -> Self {
        ServingScenario {
            name: "overload",
            arrival_qps: 900.0,
            duration: Duration::from_millis(if smoke { 400 } else { 2000 }),
            // The smoke document is small enough that a queue of 32 never
            // fills; a tighter bound keeps the rejection path exercised.
            max_queued: Some(if smoke { 4 } else { 32 }),
        }
    }
}

/// Latency distribution of the served jobs in one scenario.
#[derive(Debug, Clone, Copy)]
pub struct LatencyStats {
    /// Median.
    pub p50: Duration,
    /// 90th percentile.
    pub p90: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// 99.9th percentile.
    pub p999: Duration,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Worst observed.
    pub max: Duration,
}

impl LatencyStats {
    fn from_sorted(sorted: &[Duration]) -> Self {
        let pick = |q: f64| -> Duration {
            if sorted.is_empty() {
                return Duration::ZERO;
            }
            let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
            sorted[idx.min(sorted.len() - 1)]
        };
        let mean = if sorted.is_empty() {
            Duration::ZERO
        } else {
            sorted.iter().sum::<Duration>() / sorted.len() as u32
        };
        LatencyStats {
            p50: pick(0.50),
            p90: pick(0.90),
            p99: pick(0.99),
            p999: pick(0.999),
            mean,
            max: sorted.last().copied().unwrap_or(Duration::ZERO),
        }
    }
}

/// Everything measured for one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The scenario that produced this.
    pub scenario: ServingScenario,
    /// Jobs offered by the generator (admitted or not).
    pub submitted: usize,
    /// Jobs that completed (all outputs verified against the reference).
    pub served: usize,
    /// Jobs rejected at admission (`Overloaded`).
    pub rejected: usize,
    /// Admitted jobs that never completed (should stay 0).
    pub aborted: usize,
    /// `rejected / submitted`.
    pub rejection_rate: f64,
    /// `submitted / arrival-window` — the load the generator actually
    /// offered (sleep granularity can make it dip below the target).
    pub offered_qps: f64,
    /// `served / total wall` including the drain of in-flight tickets.
    pub achieved_qps: f64,
    /// Latency distribution over served jobs (submit → worker finish).
    pub latency: LatencyStats,
    /// Mean admission-queue depth, sampled at every arrival.
    pub queue_depth_mean: f64,
    /// Deepest sampled admission queue.
    pub queue_depth_max: usize,
}

/// Result of a full `bench_serving` run.
#[derive(Debug, Clone)]
pub struct ServingBenchResult {
    /// Per-scenario measurements, in run order.
    pub scenarios: Vec<ScenarioResult>,
}

/// Draw a shape index from a Zipf distribution over `0..shapes` (rank
/// `k+1` has weight `1/(k+1)^s`) by inverting the CDF.
fn zipf_pick(rng: &mut StdRng, cdf: &[f64]) -> usize {
    let u: f64 = rng.random::<f64>() * cdf.last().copied().unwrap_or(1.0);
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

fn zipf_cdf(shapes: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    (0..shapes.max(1))
        .map(|k| {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            acc
        })
        .collect()
}

/// Fire one scenario at a freshly seeded engine and collect its metrics.
pub fn run_scenario(cfg: &ServingBenchConfig, scenario: &ServingScenario) -> ScenarioResult {
    let engine = Arc::new(RoxEngine::with_workers(
        xmark_catalog(&cfg.xmark),
        Arc::new(WorkerPool::new(cfg.workers.max(1))),
    ));
    let graphs = cfg.graphs();
    let reference = warm_up(cfg, &engine, &graphs);
    let arrivals = dispatch(cfg, scenario, &engine, &graphs);
    drain(scenario, &engine, arrivals, &reference)
}

/// Plan-seeding options shared by the warmup and the served jobs.
fn seed_options(cfg: &ServingBenchConfig) -> RoxOptions {
    RoxOptions {
        tau: cfg.tau,
        plan_reuse: PlanReuse::ReuseValidated,
        ..Default::default()
    }
}

/// Warmup outside the measured window: seed indexes, base lists, and one
/// validated plan per shape, and return the reference outputs.
fn warm_up(cfg: &ServingBenchConfig, engine: &RoxEngine, graphs: &[JoinGraph]) -> Vec<Relation> {
    graphs
        .iter()
        .map(|g| engine.run(g, seed_options(cfg)).unwrap().output)
        .collect()
}

/// What the open-loop dispatcher leaves for [`drain`].
struct Arrivals {
    start: Instant,
    window: Duration,
    inflight: Vec<(Instant, usize, EngineTicket)>,
    submitted: usize,
    rejected: usize,
    depth_sum: u64,
    depth_max: usize,
}

/// The arrival window: fire the scenario's Poisson arrivals at `engine`
/// without ever waiting for a completion.
fn dispatch(
    cfg: &ServingBenchConfig,
    scenario: &ServingScenario,
    engine: &Arc<RoxEngine>,
    graphs: &[JoinGraph],
) -> Arrivals {
    let serve_options = RoxOptions {
        max_queued: scenario.max_queued,
        ..seed_options(cfg)
    };
    let cdf = zipf_cdf(graphs.len(), cfg.zipf_s);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut inflight: Vec<(Instant, usize, EngineTicket)> = Vec::new();
    let mut rejected = 0usize;
    let mut submitted = 0usize;
    let mut depth_sum = 0u64;
    let mut depth_max = 0usize;

    // Open loop: arrivals follow the exponential clock no matter how the
    // engine keeps up; the dispatcher never blocks on a completion.
    let start = Instant::now();
    let mut next_at = Duration::ZERO;
    loop {
        let now = start.elapsed();
        if now >= scenario.duration {
            break;
        }
        if next_at > now {
            std::thread::sleep(next_at - now);
        }
        let shape = zipf_pick(&mut rng, &cdf);
        submitted += 1;
        let submitted_at = Instant::now();
        match engine.try_submit(&graphs[shape], serve_options) {
            Ok(ticket) => inflight.push((submitted_at, shape, ticket)),
            Err(ServeError::Overloaded { .. }) => rejected += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
        let depth = engine.queue_depth();
        depth_sum += depth as u64;
        depth_max = depth_max.max(depth);
        // Poisson arrivals: exponential inter-arrival gap 1/λ · −ln(1−u).
        let u: f64 = rng.random();
        next_at += Duration::from_secs_f64((-(1.0 - u).ln()) / scenario.arrival_qps);
    }
    Arrivals {
        start,
        window: start.elapsed(),
        inflight,
        submitted,
        rejected,
        depth_sum,
        depth_max,
    }
}

/// Wait for every admitted job, check its output against `reference`, and
/// reconcile the engine's admission counters.
fn drain(
    scenario: &ServingScenario,
    engine: &RoxEngine,
    arrivals: Arrivals,
    reference: &[Relation],
) -> ScenarioResult {
    let Arrivals {
        start,
        window,
        inflight,
        submitted,
        rejected,
        depth_sum,
        depth_max,
    } = arrivals;
    // Latency is worker-side finish minus submit, so collecting tickets
    // in submission order here cannot inflate the tail.
    let mut latencies = Vec::with_capacity(inflight.len());
    let mut aborted = 0usize;
    for (submitted_at, shape, ticket) in inflight {
        let outcome = ticket.wait();
        match outcome.result {
            Ok(run) => {
                assert_eq!(run.output, reference[shape], "served output diverged");
                latencies.push(outcome.finished_at.duration_since(submitted_at));
            }
            Err(ServeError::Aborted) => aborted += 1,
            Err(e) => panic!("serving failed: {e}"),
        }
    }
    let total_wall = start.elapsed();
    latencies.sort_unstable();

    let served = latencies.len();
    let stats = engine.stats();
    assert_eq!(stats.queue_depth, 0, "queue must be drained");
    assert_eq!(
        stats.jobs_submitted,
        stats.jobs_served + stats.jobs_rejected + stats.jobs_aborted,
        "serving counters must reconcile: {stats:?}"
    );

    ScenarioResult {
        scenario: scenario.clone(),
        submitted,
        served,
        rejected,
        aborted,
        rejection_rate: rejected as f64 / (submitted as f64).max(1.0),
        offered_qps: submitted as f64 / window.as_secs_f64().max(f64::EPSILON),
        achieved_qps: served as f64 / total_wall.as_secs_f64().max(f64::EPSILON),
        latency: LatencyStats::from_sorted(&latencies),
        queue_depth_mean: depth_sum as f64 / (submitted as f64).max(1.0),
        queue_depth_max: depth_max,
    }
}

/// Run every scenario in order.
pub fn run(cfg: &ServingBenchConfig, scenarios: &[ServingScenario]) -> ServingBenchResult {
    ServingBenchResult {
        scenarios: scenarios.iter().map(|s| run_scenario(cfg, s)).collect(),
    }
}

/// Render the result as the `BENCH_serving.json` document (hand-rolled —
/// the workspace is dependency-free by policy).
pub fn to_json(cfg: &ServingBenchConfig, r: &ServingBenchResult) -> String {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let scenarios: Vec<String> = r
        .scenarios
        .iter()
        .map(|s| {
            format!(
                concat!(
                    "    {{\"name\": \"{}\", \"arrival_qps\": {:.0}, \"duration_ms\": {}, ",
                    "\"max_queued\": {}, \"submitted\": {}, \"served\": {}, \"rejected\": {}, ",
                    "\"aborted\": {}, \"rejection_rate\": {:.3}, \"offered_qps\": {:.1}, ",
                    "\"achieved_qps\": {:.1}, \"latency_ms\": {{\"p50\": {:.2}, \"p90\": {:.2}, ",
                    "\"p99\": {:.2}, \"p999\": {:.2}, \"mean\": {:.2}, \"max\": {:.2}}}, ",
                    "\"queue_depth\": {{\"mean\": {:.1}, \"max\": {}}}}}"
                ),
                s.scenario.name,
                s.scenario.arrival_qps,
                s.scenario.duration.as_millis(),
                s.scenario
                    .max_queued
                    .map_or("null".to_string(), |m| m.to_string()),
                s.submitted,
                s.served,
                s.rejected,
                s.aborted,
                s.rejection_rate,
                s.offered_qps,
                s.achieved_qps,
                ms(s.latency.p50),
                ms(s.latency.p90),
                ms(s.latency.p99),
                ms(s.latency.p999),
                ms(s.latency.mean),
                ms(s.latency.max),
                s.queue_depth_mean,
                s.queue_depth_max,
            )
        })
        .collect();
    format!(
        "{{\n  \"machine\": {},\n  \"config\": {{\"persons\": {}, \"items\": {}, \"auctions\": {}, \"queries\": {}, \"tau\": {}, \"zipf_s\": {:.2}, \"workers\": {}, \"seed\": {}}},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        crate::machine_json(),
        cfg.xmark.persons,
        cfg.xmark.items,
        cfg.xmark.auctions,
        cfg.queries,
        cfg.tau,
        cfg.zipf_s,
        cfg.workers,
        cfg.seed,
        scenarios.join(",\n"),
    )
}

/// Render a human-readable summary table.
pub fn render(r: &ServingBenchResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(
        out,
        "{:>9}  {:>8}  {:>7}  {:>7}  {:>6}  {:>9}  {:>9}  {:>9}  {:>9}  {:>7}",
        "scenario", "offered", "served", "reject", "q-max", "p50", "p99", "p999", "max", "qps"
    )
    .unwrap();
    for s in &r.scenarios {
        writeln!(
            out,
            "{:>9}  {:>8.1}  {:>7}  {:>7}  {:>6}  {:>9.3?}  {:>9.3?}  {:>9.3?}  {:>9.3?}  {:>7.1}",
            s.scenario.name,
            s.offered_qps,
            s.served,
            s.rejected,
            s.queue_depth_max,
            s.latency.p50,
            s.latency.p99,
            s.latency.p999,
            s.latency.max,
            s.achieved_qps,
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_cdf_is_monotone_and_skewed() {
        let cdf = zipf_cdf(6, 1.1);
        assert_eq!(cdf.len(), 6);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
        // Rank 1 carries the largest single mass.
        assert!(cdf[0] > cdf[1] - cdf[0]);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 6];
        for _ in 0..4000 {
            counts[zipf_pick(&mut rng, &cdf)] += 1;
        }
        assert!(counts[0] > counts[5], "head rank must dominate the tail");
    }

    /// Park every worker of `pool` on a gate job and return once all of
    /// them hold one; dropping the returned senders releases them.
    fn hold_workers(pool: &WorkerPool) -> Vec<std::sync::mpsc::Sender<()>> {
        use std::sync::mpsc::channel;
        let (arrived_tx, arrived_rx) = channel();
        let gates: Vec<_> = (0..pool.workers())
            .map(|_| {
                let (release_tx, release_rx) = channel::<()>();
                let arrived = arrived_tx.clone();
                pool.execute(move || {
                    arrived.send(()).unwrap();
                    // Blocks until the sender is dropped.
                    let _ = release_rx.recv();
                });
                release_tx
            })
            .collect();
        for _ in 0..pool.workers() {
            arrived_rx.recv().unwrap();
        }
        gates
    }

    #[test]
    fn smoke_scenarios_reconcile() {
        let cfg = ServingBenchConfig {
            xmark: XmarkConfig::tiny(),
            queries: 2,
            tau: 16,
            workers: 2,
            ..ServingBenchConfig::smoke()
        };
        let steady = ServingScenario {
            name: "steady",
            arrival_qps: 50.0,
            duration: Duration::from_millis(200),
            max_queued: Some(64),
        };
        let overload = ServingScenario {
            name: "overload",
            arrival_qps: 2000.0,
            duration: Duration::from_millis(200),
            max_queued: Some(4),
        };
        let mut r = run(&cfg, &[steady]);
        // Overload: every worker is held on a gate while the burst is
        // submitted, so the admission queue fills however fast the
        // queries run; the held jobs are served once the gate opens.
        let pool = Arc::new(WorkerPool::new(cfg.workers));
        let engine = Arc::new(RoxEngine::with_workers(
            xmark_catalog(&cfg.xmark),
            Arc::clone(&pool),
        ));
        let graphs = cfg.graphs();
        let reference = warm_up(&cfg, &engine, &graphs);
        let gates = hold_workers(&pool);
        let arrivals = dispatch(&cfg, &overload, &engine, &graphs);
        drop(gates);
        r.scenarios
            .push(drain(&overload, &engine, arrivals, &reference));
        assert_eq!(r.scenarios.len(), 2);
        for s in &r.scenarios {
            assert_eq!(s.submitted, s.served + s.rejected + s.aborted);
            assert!(s.served > 0, "{}: nothing served", s.scenario.name);
            assert!(s.latency.p50 <= s.latency.p99 && s.latency.p99 <= s.latency.max);
        }
        // Arrivals against held workers and a tiny bound must shed load.
        assert!(
            r.scenarios[1].rejected > 0,
            "overload scenario never rejected"
        );
        let json = to_json(&cfg, &r);
        assert!(json.contains("\"machine\""));
        assert!(json.contains("\"p999\""));
        assert!(json.contains("\"rejection_rate\""));
        let table = render(&r);
        assert!(table.contains("overload"));
    }
}
