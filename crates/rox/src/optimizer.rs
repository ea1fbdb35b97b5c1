//! The ROX run-time optimizer (Algorithm 1): intertwined optimization and
//! evaluation of a Join Graph.
//!
//! Phase 1 seeds per-vertex samples and cardinalities from the indices and
//! weights every edge by sampled execution. Phase 2 alternates
//! [`chain_sample`](crate::chain::chain_sample()) (search-space exploration)
//! with full execution of the superior path segment, re-sampling the
//! weights of all edges incident to updated vertices after every execution
//! — re-sampling, not scaling, is what lets ROX "detect arbitrary
//! correlations between edges in the Join Graph" (§3).

use crate::chain::{chain_sample, ChainTrace};
use crate::env::{EnvError, RoxEnv};
use crate::estimate::estimate_cards;
use crate::state::{EdgeExec, EvalState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rox_joingraph::{EdgeId, JoinGraph};
use rox_ops::{Cost, Relation};
use rox_par::Parallelism;
use rox_xmldb::Catalog;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tunables of the run-time optimizer.
#[derive(Debug, Clone, Copy)]
pub struct RoxOptions {
    /// Sample size τ (the paper's default is 100, §3 Phase 1).
    pub tau: usize,
    /// RNG seed — all sampling is deterministic under a fixed seed.
    pub seed: u64,
    /// Record chain-sampling traces (Table 2 / Fig. 3 reproductions).
    pub trace: bool,
    /// Ablation: disable chain sampling and greedily execute the
    /// minimum-weight edge (Algorithm 2 degenerates to its line-5 case).
    /// ROX with this off is vulnerable to exactly the local minima §3.1
    /// motivates.
    pub chain_sampling: bool,
    /// Ablation: disable weight re-sampling after executions and keep the
    /// Phase 1 weights. The paper argues re-sampling (not scaling) is what
    /// detects arbitrary correlations (§3); turning it off shows why.
    pub resample: bool,
    /// Extension (paper §6, first item): adaptive optimization effort.
    /// When set, chain sampling is skipped (greedy fallback) while the
    /// accumulated sampling work exceeds `budget × max(execution work, τ²)`
    /// — i.e. ROX stops investing in exploration when optimization already
    /// dominates the run. `None` (default) reproduces the paper's
    /// always-explore behaviour.
    pub effort_budget: Option<f64>,
    /// Extension: worker-thread budget. Candidate sampling (Phase 1
    /// weighting, chain-sampling extensions, post-execution re-weighting)
    /// fans its independent cut-off operator runs out across this many
    /// threads, and full edge executions use the partitioned staircase /
    /// hash joins. Results are **bit-identical** to
    /// [`Parallelism::Sequential`] — same outputs, same chosen join order,
    /// same cost counters (the equivalence proptest in `tests/` checks
    /// this). The default reproduces the paper's single-threaded setting.
    pub parallelism: Parallelism,
    /// Extension: plan-cache policy, honoured by
    /// [`RoxEngine::run`](crate::RoxEngine::run) (a direct [`run_rox`]
    /// call has no plan cache and always optimizes, whatever this says).
    /// The default reproduces the paper's per-query optimization.
    pub plan_reuse: crate::engine::PlanReuse,
    /// Extension: bound on the engine's serving admission queue. With
    /// `Some(m)`, [`RoxEngine::try_submit`](crate::RoxEngine::try_submit)
    /// rejects a job (`ServeError::Overloaded`) once `m` admitted jobs are
    /// already waiting to start, and
    /// [`RoxEngine::run_many`](crate::RoxEngine::run_many) rejects the
    /// jobs deeper than `threads + m` in its batch — explicit backpressure
    /// instead of unbounded buffering. `None` (default) admits everything.
    pub max_queued: Option<usize>,
}

impl Default for RoxOptions {
    fn default() -> Self {
        RoxOptions {
            tau: 100,
            seed: 42,
            trace: false,
            chain_sampling: true,
            resample: true,
            effort_budget: None,
            parallelism: Parallelism::Sequential,
            plan_reuse: crate::engine::PlanReuse::AlwaysOptimize,
            max_queued: None,
        }
    }
}

/// Everything a ROX run produces.
#[derive(Debug)]
pub struct RoxReport {
    /// The fully joined Join Graph result (pre-tail).
    pub joined: Relation,
    /// The query output after the plan tail (π·δ·τ·π).
    pub output: Relation,
    /// Edges in the order ROX executed them — the "pure plan" that replays
    /// without sampling.
    pub executed_order: Vec<EdgeId>,
    /// Per-execution result sizes (Fig. 5's cumulative intermediates).
    pub edge_log: Vec<EdgeExec>,
    /// Work done by full executions.
    pub exec_cost: Cost,
    /// Work done by sampling (phase 1 + chain sampling + re-weighting).
    pub sample_cost: Cost,
    /// Wall-clock spent in full execution (+ finalization and tail).
    pub exec_wall: Duration,
    /// Wall-clock spent sampling.
    pub sample_wall: Duration,
    /// Total wall-clock of the run.
    pub total_wall: Duration,
    /// Chain-sampling traces (only when `options.trace`).
    pub traces: Vec<ChainTrace>,
}

impl RoxReport {
    /// Relative sampling overhead `(R - r) / r` in percent, computed from
    /// the work counters (deterministic analogue of Fig. 8's wall-clock
    /// metric).
    pub fn sampling_overhead_pct(&self) -> f64 {
        let r = self.exec_cost.total() as f64;
        if r == 0.0 {
            return 0.0;
        }
        100.0 * self.sample_cost.total() as f64 / r
    }
}

/// Run ROX over a compiled Join Graph against loaded documents.
pub fn run_rox(
    catalog: Arc<Catalog>,
    graph: &JoinGraph,
    options: RoxOptions,
) -> Result<RoxReport, EnvError> {
    let env = RoxEnv::with_parallelism(catalog, graph, options.parallelism)?;
    run_rox_with_env(&env, graph, options)
}

/// As [`run_rox`] but reusing an existing environment (index caches stay
/// warm across runs — how the experiment harnesses amortize setup).
/// `options.parallelism` governs the whole run — sampling fan-out *and*
/// full edge execution — overriding whatever parallelism `env` carries
/// (the env knob still applies to plan replays and baselines driven
/// through [`crate::run_plan_with_env`]).
pub fn run_rox_with_env(
    env: &RoxEnv,
    graph: &JoinGraph,
    options: RoxOptions,
) -> Result<RoxReport, EnvError> {
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut state = EvalState::new(env, graph);
    // RoxOptions is the single source of truth for a ROX run: it governs
    // both the sampling fan-out and full edge execution, regardless of the
    // parallelism the environment was built with.
    state.set_parallelism(options.parallelism);
    let mut sample_cost = Cost::new();
    let mut sample_wall = Duration::ZERO;
    let mut exec_wall = Duration::ZERO;
    let mut traces = Vec::new();

    // ---- Phase 1: seed samples, cards and edge weights (lines 1-4). ----
    let t0 = Instant::now();
    for v in graph.vertices() {
        state.seed_sample(v.id, &mut rng, options.tau);
    }
    let mut weights = phase1_weights(&state, &options, &mut sample_cost);
    sample_wall += t0.elapsed();

    // ---- Phase 2: alternate exploration and execution (lines 5-19). ----
    let mut executed_order = Vec::new();
    optimize_loop(
        &mut state,
        &mut weights,
        &mut rng,
        &options,
        &mut executed_order,
        &mut sample_cost,
        &mut sample_wall,
        &mut exec_wall,
        &mut traces,
    );

    // ---- Finalize: assemble the full join and apply the tail. ----
    let t_fin = Instant::now();
    let (joined, output, exec_cost) = state.finish();
    exec_wall += t_fin.elapsed();

    Ok(RoxReport {
        joined,
        output,
        executed_order,
        edge_log: std::mem::take(&mut state.edge_log),
        exec_cost,
        sample_cost,
        exec_wall,
        sample_wall,
        total_wall: started.elapsed(),
        traces,
    })
}

/// Phase-1 edge weights (Algorithm 1, line 4) over a state whose samples
/// are seeded: every unexecuted edge weighted by an independent cut-off
/// sampled operator run, indexed by edge id (`None` for executed or
/// unweighable edges). Shared by a fresh run and the guarded replay's
/// mid-query demotion.
pub(crate) fn phase1_weights(
    state: &EvalState<'_>,
    options: &RoxOptions,
    sample_cost: &mut Cost,
) -> Vec<Option<f64>> {
    let mut weights = vec![None; state.graph.edge_count()];
    reweigh(
        state,
        &state.unexecuted_edges(),
        &mut weights,
        options,
        sample_cost,
    );
    weights
}

/// Re-estimate `edges` into `weights` — one independent sampled run per
/// edge over shared immutable state, the embarrassingly parallel step
/// [`estimate_cards`] fans out across the worker pool.
fn reweigh(
    state: &EvalState<'_>,
    edges: &[EdgeId],
    weights: &mut [Option<f64>],
    options: &RoxOptions,
    sample_cost: &mut Cost,
) {
    let ws = estimate_cards(state, edges, options.tau, options.parallelism, sample_cost);
    for (&e, w) in edges.iter().zip(ws) {
        weights[e as usize] = w;
    }
}

/// The minimum-weight edge of `edges` (an unweighted edge counts as
/// infinitely heavy; ties go to the lower edge id) — the pick rule of
/// chain sampling's seed edge, the greedy ablation, and segment execution.
pub(crate) fn lightest(edges: &[EdgeId], weights: &[Option<f64>]) -> Option<EdgeId> {
    edges.iter().copied().min_by(|&a, &b| {
        let wa = weights[a as usize].unwrap_or(f64::INFINITY);
        let wb = weights[b as usize].unwrap_or(f64::INFINITY);
        wa.total_cmp(&wb).then(a.cmp(&b))
    })
}

/// The Phase-2 drive loop of Algorithm 1 (lines 5-19): alternate
/// exploration (chain sampling or the greedy ablation) with full execution
/// of the superior path segment, re-weighting edges incident to updated
/// vertices after every execution. Factored out of [`run_rox_with_env`] so
/// mid-query demotion (the guarded replay's breach path) drives the exact
/// same loop over a state that already carries an executed prefix.
#[allow(clippy::too_many_arguments)] // mirrors the loop's former locals 1:1
pub(crate) fn optimize_loop(
    state: &mut EvalState<'_>,
    weights: &mut [Option<f64>],
    rng: &mut StdRng,
    options: &RoxOptions,
    executed_order: &mut Vec<EdgeId>,
    sample_cost: &mut Cost,
    sample_wall: &mut Duration,
    exec_wall: &mut Duration,
    traces: &mut Vec<ChainTrace>,
) {
    while !state.unexecuted_edges().is_empty() {
        let t_sample = Instant::now();
        // Adaptive effort (§6): once sampling work dominates execution
        // work beyond the budget, stop paying for lookahead.
        let explore = options.chain_sampling
            && options.effort_budget.is_none_or(|budget| {
                let floor = (options.tau * options.tau) as f64;
                (sample_cost.total() as f64) <= budget * (state.exec_cost.total() as f64).max(floor)
            });
        let outcome = if explore {
            chain_sample(
                state,
                weights,
                rng,
                options.tau,
                options.parallelism,
                sample_cost,
            )
        } else {
            // Greedy ablation: the minimum-weight edge, no lookahead.
            let e = lightest(&state.unexecuted_edges(), weights).expect("loop guard");
            crate::chain::ChainOutcome {
                path: vec![e],
                trace: crate::chain::ChainTrace {
                    seed_edge: e,
                    ..Default::default()
                },
            }
        };
        *sample_wall += t_sample.elapsed();
        if options.trace {
            traces.push(outcome.trace);
        }
        // Execute the chosen path segment: the paper treats it "as a
        // separate Join Graph" and executes it in its best order — we pick
        // the current-minimum-weight edge of the segment each time,
        // re-weighting in between.
        let mut remaining: Vec<EdgeId> = outcome.path;
        while !remaining.is_empty() {
            remaining.retain(|&e| !state.is_executed(e));
            let Some(e) = lightest(&remaining, weights) else {
                break;
            };
            let t_exec = Instant::now();
            let changed = state.execute_edge(e, Some((&mut *rng, options.tau)));
            *exec_wall += t_exec.elapsed();
            executed_order.push(e);
            remaining.retain(|&x| x != e);
            // Lines 18-19: re-sample the weights of all unexecuted edges
            // incident to updated vertices — one independent sampled run
            // per edge, fanned out in parallel like Phase 1.
            if options.resample {
                let t_rw = Instant::now();
                let stale: Vec<EdgeId> = changed
                    .iter()
                    .flat_map(|&v| state.unexecuted_edges_of(v))
                    .collect();
                reweigh(state, &stale, weights, options, sample_cost);
                *sample_wall += t_rw.elapsed();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rox_joingraph::compile_query;

    fn setup(src: &str, docs: &[(&str, &str)]) -> (Arc<Catalog>, JoinGraph) {
        let cat = Arc::new(Catalog::new());
        for (uri, xml) in docs {
            cat.load_str(uri, xml).unwrap();
        }
        (cat, compile_query(src).unwrap())
    }

    #[test]
    fn simple_path_query() {
        let (cat, g) = setup(
            r#"for $a in doc("d.xml")//auction, $b in $a/bidder return $b"#,
            &[(
                "d.xml",
                "<site><auction><bidder/><bidder/></auction><auction><bidder/></auction></site>",
            )],
        );
        let r = run_rox(cat, &g, RoxOptions::default()).unwrap();
        assert_eq!(r.output.len(), 3);
        assert!(!r.executed_order.is_empty());
    }

    #[test]
    fn cross_document_join_query() {
        let (cat, g) = setup(
            r#"for $x in doc("x.xml")//a, $y in doc("y.xml")//b
               where $x/text() = $y/text() return $x"#,
            &[
                ("x.xml", "<r><a>k1</a><a>k2</a><a>zz</a></r>"),
                ("y.xml", "<r><b>k2</b><b>k1</b><b>k1</b></r>"),
            ],
        );
        let r = run_rox(cat, &g, RoxOptions::default()).unwrap();
        // Join pairs: k1×2, k2×1 = 3 joined rows; distinct (a,b) pairs = 3;
        // output column a values: k1 twice (two partners), k2 once.
        assert_eq!(r.joined.len(), 3);
        assert_eq!(r.output.len(), 3);
    }

    #[test]
    fn deterministic_under_seed() {
        let (cat, g) = setup(
            r#"for $x in doc("x.xml")//a, $y in doc("y.xml")//b
               where $x/text() = $y/text() return $x"#,
            &[
                ("x.xml", "<r><a>k1</a><a>k2</a></r>"),
                ("y.xml", "<r><b>k2</b><b>k1</b></r>"),
            ],
        );
        let r1 = run_rox(Arc::clone(&cat), &g, RoxOptions::default()).unwrap();
        let r2 = run_rox(cat, &g, RoxOptions::default()).unwrap();
        assert_eq!(r1.executed_order, r2.executed_order);
        assert_eq!(r1.output, r2.output);
    }

    #[test]
    fn empty_result_is_fine() {
        let (cat, g) = setup(
            r#"for $x in doc("x.xml")//a, $y in doc("y.xml")//b
               where $x/text() = $y/text() return $x"#,
            &[("x.xml", "<r><a>p</a></r>"), ("y.xml", "<r><b>q</b></r>")],
        );
        let r = run_rox(cat, &g, RoxOptions::default()).unwrap();
        assert_eq!(r.output.len(), 0);
    }

    #[test]
    fn sampling_and_exec_costs_separated() {
        let (cat, g) = setup(
            r#"for $a in doc("d.xml")//auction, $b in $a/bidder return $b"#,
            &[(
                "d.xml",
                "<site><auction><bidder/><bidder/></auction></site>",
            )],
        );
        let r = run_rox(cat, &g, RoxOptions::default()).unwrap();
        assert!(r.sample_cost.total() > 0);
        assert!(r.exec_cost.total() > 0);
        assert!(r.sampling_overhead_pct() >= 0.0);
    }

    #[test]
    fn adaptive_effort_caps_sampling_and_stays_correct() {
        let body: String = (0..50)
            .map(|i| {
                if i % 2 == 0 {
                    "<auction><cheap/><bidder/></auction>"
                } else {
                    "<auction><bidder/><bidder/><bidder/></auction>"
                }
            })
            .collect();
        let xml = format!("<site>{body}</site>");
        let (cat, g) = setup(
            r#"for $a in doc("d.xml")//auction[./cheap], $b in $a/bidder return $b"#,
            &[("d.xml", &xml)],
        );
        let free = run_rox(Arc::clone(&cat), &g, RoxOptions::default()).unwrap();
        let capped = run_rox(
            cat,
            &g,
            RoxOptions {
                effort_budget: Some(0.0),
                tau: 10,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(free.output, capped.output);
        // With a zero budget past the τ² floor, sampling must not balloon.
        assert!(capped.sample_cost.total() <= free.sample_cost.total());
    }

    #[test]
    fn trace_collection_when_enabled() {
        let (cat, g) = setup(
            r#"for $a in doc("d.xml")//auction[./cheap], $b in $a/bidder return $b"#,
            &[(
                "d.xml",
                "<site><auction><cheap/><bidder/></auction><auction><bidder/><bidder/></auction></site>",
            )],
        );
        let r = run_rox(
            cat,
            &g,
            RoxOptions {
                trace: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!r.traces.is_empty());
        assert_eq!(r.output.len(), 1);
    }
}
