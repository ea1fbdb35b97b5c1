//! Guarded plan replay: sampled revalidation and mid-query demotion.
//!
//! Since the plan cache replays on shape match alone, it silently gives up
//! the paper's whole robustness story the moment the data drifts. This
//! module puts Algorithm 1 back in the loop *continuously*: every
//! `ReuseValidated` replay is checked against the cardinalities the
//! seeding run recorded, and a breach demotes the replay **mid-query** to
//! a fresh run-time optimization of the remaining edges.
//!
//! Two kinds of checks, both compared through the documented thresholds in
//! `rox_ops::cost` ([`DRIFT_RATIO`] /
//! [`DRIFT_ABS_FLOOR`](rox_ops::DRIFT_ABS_FLOOR)):
//!
//! 1. **Sampled spot checks** (before any execution): the first
//!    [`REVALIDATE_SPOT_CHECKS`] plan
//!    edges are re-estimated by a cheap zero-investment probe — both
//!    endpoints sampled at the small, τ-independent
//!    [`REVALIDATE_SPOT_TAU`] under an RNG
//!    derived from the recorded plan seed and the edge id. The recorded
//!    expectation was computed by the *same* probe procedure at seed time,
//!    so on unchanged data the replay's probe is **bit-identical** to it
//!    (ratio exactly 1) and zero drift can never spuriously demote; the
//!    charged work is capped by
//!    [`revalidation_budget`].
//! 2. **Observed checks** (during execution, free): after each replayed
//!    edge, the actual node-level pairs and result rows are compared
//!    against the recorded [`EdgeExec`] — exact values, no sampling noise
//!    — which is what catches *correlation* drift that leaves every base
//!    cardinality untouched.
//!
//! On breach the state — with its executed prefix, tables, and
//! cardinalities — is handed to the same Phase-1 + Phase-2 machinery an
//! optimizing run uses ([`crate::optimizer`]): samples are re-seeded from
//! the *current* `T(v)` tables and the remaining edges are optimized from
//! scratch. Output correctness is unconditional (any edge order joins to
//! the same relation); demotion recovers the *order* quality.

use crate::env::RoxEnv;
use crate::estimate::estimate_card;
use crate::optimizer::{optimize_loop, phase1_weights, RoxOptions};
use crate::plan::{validate_plan, PlanError};
use crate::state::{EdgeExec, EvalState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rox_joingraph::{EdgeId, JoinGraph};
use rox_ops::{
    drift_ratio, revalidation_budget, Cost, Relation, DRIFT_RATIO, REVALIDATE_SPOT_CHECKS,
    REVALIDATE_SPOT_TAU,
};
use std::time::{Duration, Instant};

/// What the seeding run recorded for one plan edge — the expectations a
/// guarded replay checks the live run against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeExpectation {
    /// The seed-time spot-probe estimate of the edge, recorded by the
    /// exact probe procedure the replay re-runs (`None` when the edge sits
    /// past the spot-check window or the probe had nothing to sample).
    pub spot_estimate: Option<f64>,
    /// Component result rows the seeding run observed ([`EdgeExec`]).
    pub result_rows: usize,
    /// Node-level pairs the seeding run observed.
    pub pairs: usize,
    /// Input cardinalities `(|T(v1)|, |T(v2)|)` at the seeding execution.
    pub inputs: (usize, usize),
}

impl EdgeExpectation {
    /// Recorded reduction factor `pairs / (|T(v1)|·|T(v2)|)`.
    pub fn reduction(&self) -> f64 {
        let denom = (self.inputs.0 as f64) * (self.inputs.1 as f64);
        if denom == 0.0 {
            return 0.0;
        }
        self.pairs as f64 / denom
    }
}

/// The replayable slice of a plan-cache entry: what [`run_guarded`] needs,
/// with no strings attached (cloning it out of the cache lock is cheap).
#[derive(Debug, Clone)]
pub(crate) struct GuardSpec {
    /// Edge order to replay.
    pub order: Vec<EdgeId>,
    /// Per-edge expectations, parallel to `order`.
    pub expected: Vec<EdgeExpectation>,
    /// τ the seeding run sampled with (governs the Phase-1 reproduction).
    pub tau: usize,
    /// RNG seed of the seeding run.
    pub seed: u64,
}

/// Which comparison a [`SpotCheck`] made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// Pre-execution sampled probe vs the recorded Phase-1 weight.
    SampledWeight,
    /// Post-execution observed pairs / result rows vs the recorded
    /// [`EdgeExec`] (exact, free).
    Observed,
}

/// One drift comparison a guarded replay performed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotCheck {
    /// The checked edge.
    pub edge: EdgeId,
    /// Sampled or observed.
    pub kind: CheckKind,
    /// The recorded expectation.
    pub expected: f64,
    /// What the replay measured.
    pub observed: f64,
    /// Symmetric floored ratio (see [`rox_ops::drift_ratio`]).
    pub ratio: f64,
    /// Did the ratio breach [`DRIFT_RATIO`]?
    pub breached: bool,
}

/// How a guarded replay ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardVerdict {
    /// Every check passed; the cached plan was replayed to completion.
    Revalidated,
    /// A check breached after `at_edge` plan edges had been executed; the
    /// remaining edges were re-optimized from the live state (`at_edge`
    /// is 0 when a pre-execution sampled check fired).
    Demoted {
        /// Executed-prefix length at the breach.
        at_edge: usize,
    },
}

/// Everything one guarded replay produces (the engine folds this into an
/// [`EngineRun`](crate::EngineRun)).
#[derive(Debug)]
pub(crate) struct GuardedRun {
    /// Fully joined relation.
    pub joined: Relation,
    /// Output after the tail.
    pub output: Relation,
    /// Edges actually executed, in order (replayed prefix + re-optimized
    /// suffix when demoted).
    pub executed_order: Vec<EdgeId>,
    /// Per-edge observations.
    pub edge_log: Vec<EdgeExec>,
    /// Full-execution work.
    pub exec_cost: Cost,
    /// Sampling work: the budget-capped spot checks, plus the fresh
    /// optimization's sampling when demoted.
    pub sample_cost: Cost,
    /// Wall-clock of the run.
    pub wall: Duration,
    /// Revalidated or demoted.
    pub verdict: GuardVerdict,
    /// Every drift comparison made, in order.
    pub checks: Vec<SpotCheck>,
}

/// Replay `spec` under drift guards; demote to a fresh optimization of the
/// remaining edges on breach. See the module docs for the check semantics.
pub(crate) fn run_guarded(
    env: &RoxEnv,
    graph: &JoinGraph,
    spec: &GuardSpec,
    options: RoxOptions,
) -> Result<GuardedRun, PlanError> {
    validate_plan(graph, &spec.order)?;
    debug_assert_eq!(spec.order.len(), spec.expected.len());
    let started = Instant::now();
    let mut state = EvalState::new(env, graph);
    state.set_parallelism(options.parallelism);
    let mut sample_cost = Cost::new();
    let mut sample_wall = Duration::ZERO;
    let mut exec_wall = Duration::ZERO;
    let mut traces = Vec::new();
    let mut checks: Vec<SpotCheck> = Vec::new();
    let mut breached = false;

    // ---- Sampled spot checks: re-run the seed-time probe procedure ----
    // ---- on the first K plan edges and compare bit-for-bit.        ----
    let t0 = Instant::now();
    let budget = revalidation_budget(spec.tau);
    for (i, &e) in spec.order.iter().enumerate().take(REVALIDATE_SPOT_CHECKS) {
        if sample_cost.total() >= budget {
            break;
        }
        let Some(expected) = spec.expected[i].spot_estimate else {
            continue;
        };
        let Some(observed) = spot_probe(&mut state, e, spec.seed, &mut sample_cost) else {
            continue;
        };
        let ratio = drift_ratio(observed, expected);
        let fired = ratio > DRIFT_RATIO;
        checks.push(SpotCheck {
            edge: e,
            kind: CheckKind::SampledWeight,
            expected,
            observed,
            ratio,
            breached: fired,
        });
        if fired {
            breached = true;
            break;
        }
    }
    sample_wall += t0.elapsed();

    // ---- Replay, with free observed checks after every edge. ----
    let mut executed_order = Vec::new();
    if !breached {
        for (i, &e) in spec.order.iter().enumerate() {
            if graph.edge(e).redundant {
                continue;
            }
            let t_exec = Instant::now();
            state.execute_edge(e, None);
            exec_wall += t_exec.elapsed();
            executed_order.push(e);
            let exec = *state.edge_log.last().expect("edge just logged");
            let exp = &spec.expected[i];
            // The worse of the pair-level and row-level drifts: pairs is
            // what the sampled probes estimate, result rows is what the
            // component join actually pays for.
            let pair_ratio = drift_ratio(exec.pairs as f64, exp.pairs as f64);
            let row_ratio = drift_ratio(exec.result_rows as f64, exp.result_rows as f64);
            let (observed, expected, ratio) = if pair_ratio >= row_ratio {
                (exec.pairs as f64, exp.pairs as f64, pair_ratio)
            } else {
                (exec.result_rows as f64, exp.result_rows as f64, row_ratio)
            };
            let fired = ratio > DRIFT_RATIO;
            checks.push(SpotCheck {
                edge: e,
                kind: CheckKind::Observed,
                expected,
                observed,
                ratio,
                breached: fired,
            });
            if fired {
                breached = true;
                break;
            }
        }
    }

    // ---- Breach: demote mid-query — re-seed Phase 1 from the current ----
    // ---- tables and drive Algorithm 1 over the remaining edges.      ----
    let verdict = if breached {
        let at_edge = executed_order.len();
        let t1 = Instant::now();
        let mut rng = StdRng::seed_from_u64(options.seed);
        for v in graph.vertices() {
            state.seed_sample_current(v.id, &mut rng, options.tau);
        }
        let mut weights = phase1_weights(&state, &options, &mut sample_cost);
        sample_wall += t1.elapsed();
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
        GuardVerdict::Demoted { at_edge }
    } else {
        GuardVerdict::Revalidated
    };

    // ---- Finalize exactly like every other run driver. ----
    let (joined, output, exec_cost) = state.finish();

    Ok(GuardedRun {
        joined,
        output,
        executed_order,
        edge_log: std::mem::take(&mut state.edge_log),
        exec_cost,
        sample_cost,
        wall: started.elapsed(),
        verdict,
        checks,
    })
}

/// Deterministic RNG for edge `e`'s spot probe, derived from the plan's
/// recorded seed (splitmix-style spread so neighbouring edge ids draw
/// uncorrelated streams).
fn spot_rng(seed: u64, e: EdgeId) -> StdRng {
    StdRng::seed_from_u64(seed ^ (e as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One zero-investment spot probe of edge `e` on a *pre-execution* state:
/// sample both endpoints at [`REVALIDATE_SPOT_TAU`] under the edge-derived
/// RNG and estimate the edge cardinality with a cut-off probe. The
/// procedure reads nothing but the base lists and the derived seed, so the
/// seed-time recording and every zero-drift replay compute bit-identical
/// values — and its cost is independent of the run's τ.
fn spot_probe(state: &mut EvalState<'_>, e: EdgeId, seed: u64, cost: &mut Cost) -> Option<f64> {
    let edge = state.graph.edge(e);
    let (v1, v2) = (edge.v1, edge.v2);
    let mut rng = spot_rng(seed, e);
    state.seed_sample(v1, &mut rng, REVALIDATE_SPOT_TAU);
    state.seed_sample(v2, &mut rng, REVALIDATE_SPOT_TAU);
    estimate_card(state, e, REVALIDATE_SPOT_TAU, cost)
}

/// Build the per-edge expectations for seeding (or re-seeding, after a
/// demotion) the plan cache: observed cardinalities come from the run's
/// own `edge_log`, and the first [`REVALIDATE_SPOT_CHECKS`] edges get a
/// recorded spot estimate computed by the exact probe procedure a future
/// guarded replay will re-run (same derived RNG, same probe τ, same base
/// lists) — so the next zero-drift replay compares bit-equal values. The
/// sampling charged here is cache-maintenance work, not part of any run's
/// counters.
pub(crate) fn plan_expectations(
    env: &RoxEnv,
    graph: &JoinGraph,
    order: &[EdgeId],
    edge_log: &[EdgeExec],
    options: &RoxOptions,
) -> Vec<EdgeExpectation> {
    debug_assert_eq!(order.len(), edge_log.len());
    let mut state = EvalState::new(env, graph);
    let mut maintenance = Cost::new();
    let mut expectations = Vec::with_capacity(order.len());
    for (i, (&e, exec)) in order.iter().zip(edge_log).enumerate() {
        let spot_estimate = if i < REVALIDATE_SPOT_CHECKS {
            spot_probe(&mut state, e, options.seed, &mut maintenance)
        } else {
            None
        };
        expectations.push(EdgeExpectation {
            spot_estimate,
            result_rows: exec.result_rows,
            pairs: exec.pairs,
            inputs: exec.inputs,
        });
    }
    expectations
}
