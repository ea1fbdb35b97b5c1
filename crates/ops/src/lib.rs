#![warn(missing_docs)]

//! # rox-ops — physical operators
//!
//! The physical algebra of the paper's Table 1, reimplemented over the
//! pre/size/level store of [`rox_xmldb`]:
//!
//! * [`edgeop`] — the **physical edge-operator kernel**: the single
//!   dispatch layer mapping a Join Graph edge (+ mode) to one of the
//!   operators below, consumed by sampling, chain-sampling, full
//!   execution, replay, enumeration, and the naive oracle alike;
//! * [`staircase`] — structural joins for all XPath axes, pair-producing
//!   and zero-investment in the context input;
//! * [`valjoin`] — value equi-joins (index nested-loop, hash, merge);
//! * [`partition`] — morsel-partitioned parallel variants of the
//!   staircase and hash joins (split the context, merge in document
//!   order; bit-identical to the sequential operators);
//! * [`cutoff`] — cut-off sampled execution with reduction-factor
//!   extrapolation (§2.3);
//! * [`relation`] — the columnar fully-joined intermediate relations;
//! * [`tail`] — projection / distinct / sort tail operators;
//! * [`cost`] — deterministic work accounting following Table 1, plus the
//!   explicit per-edge operator cost function
//!   [`choose_op`](cost::choose_op()).

pub mod axis;
pub mod cost;
pub mod cutoff;
pub mod edgeop;
pub mod partition;
pub mod relation;
pub mod staircase;
pub mod tail;
pub mod valjoin;

pub use axis::{Axis, NodeTest};
pub use cost::{
    choose_op, choose_step_kernel, drift_breached, drift_ratio, nl_cheaper, revalidation_budget,
    Cost, StepKernel, DRIFT_ABS_FLOOR, DRIFT_RATIO, NL_VS_HASH_FACTOR, REVALIDATE_BUDGET_PER_CHECK,
    REVALIDATE_SPOT_CHECKS, REVALIDATE_SPOT_TAU, STEP_BITSET_FACTOR, STEP_MERGE_FACTOR,
};
pub use cutoff::JoinOut;
pub use edgeop::{
    edge_predicate, execute_edge_op, execute_edge_op_with, DenseState, EdgeClass, EdgeOpChoice,
    EdgeOpCtx, EdgeOpKind, EdgeOpOut, EdgeOpResult, ExecMode,
};
pub use partition::{
    hash_value_join_partitioned, hash_value_join_partitioned_with, step_join_partitioned,
    step_join_partitioned_scratch, MIN_PARTITION_INPUT,
};
pub use relation::{distinct_sorted, Composed, KeptRows, Relation, Side, VarId};
pub use rox_index::{PreSet, SymbolTable};
pub use rox_par::Parallelism;
pub use staircase::{naive_axis, step_join, step_join_kernel, step_join_scratch, StepScratch};
pub use tail::Tail;
pub use valjoin::{
    hash_value_join, hash_value_join_with, index_value_join, index_value_join_set,
    merge_value_join, sorted_by_value,
};
