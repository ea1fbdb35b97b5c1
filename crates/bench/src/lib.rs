#![warn(missing_docs)]

//! # rox-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation (§4), each with a
//! `run(cfg)` entry point returning structured results and a binary under
//! `src/bin/` that prints them. End-to-end performance (replay, optimize,
//! storage and WAL churn) is measured by the repository's benchmark under
//! `benchmark/`, not here.
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Table 2 (chain-sampling rounds, Q1/Qm1) | [`table2`] | `table2_chain` |
//! | Table 3 (DBLP document inventory)       | [`table3`] | `table3_docs` |
//! | Fig. 5 (join-order intermediate sizes)  | [`fig5`]   | `fig5_join_orders` |
//! | Fig. 6 (plan classes vs correlation)    | [`fig6`]   | `fig6_plan_classes` |
//! | Fig. 7 (document-size scaling)          | [`fig7`]   | `fig7_scaling` |
//! | Fig. 8 (sample-size overhead)           | [`fig8`]   | `fig8_sample_size` |
//! | Thread scaling (extension)              | [`scaling_threads`] | `fig_scaling_threads` |
//! | Open-loop tail-latency serving (extension) | [`serving`] | `bench_serving` |
//!
//! `bench_serving` embeds the [`machine_json`] fragment so a
//! committed artifact records the hardware it was measured on.

pub mod args;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod scaling_threads;
pub mod serving;
pub mod setup;
pub mod table2;
pub mod table3;

pub use setup::{dblp_catalog, xmark_catalog, DblpSetup};

/// The `"machine"` fragment `BENCH_serving.json` embeds: the logical
/// core count the run saw and the size of the process-shared worker pool.
pub fn machine_json() -> String {
    format!(
        "{{\"logical_cores\": {}, \"shared_pool_workers\": {}}}",
        rox_par::Parallelism::Auto.threads(),
        rox_par::WorkerPool::shared().workers()
    )
}
