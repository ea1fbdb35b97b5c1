//! Open-loop serving benchmark binary: Zipf-skewed Poisson traffic fired
//! at one engine through the bounded admission queue, reporting
//! p50/p99/p999 latency, achieved QPS, queue depth, and rejection rate.
//! Writes the machine-readable `BENCH_serving.json` consumed by CI.
//!
//! ```text
//! cargo run --release -p rox-bench --bin bench_serving -- \
//!     [--smoke] [--out BENCH_serving.json] [--persons 3000] [--items 2500] \
//!     [--auctions 2500] [--queries 6] [--tau 100] [--zipf 1.1] \
//!     [--workers N] [--seed 42]
//! ```
//!
//! Arrival rates are 0.5× (steady) and 1.5× (overload) the closed-loop
//! capacity each scenario measures during warm-up.

use rox_bench::args::Args;
use rox_bench::serving::{self, ServingBenchConfig, ServingScenario};

fn main() {
    let args = Args::from_env();
    let smoke = args.has("smoke");
    let mut cfg = if smoke {
        ServingBenchConfig::smoke()
    } else {
        ServingBenchConfig::default()
    };
    cfg.xmark.persons = args.get("persons", cfg.xmark.persons);
    cfg.xmark.items = args.get("items", cfg.xmark.items);
    cfg.xmark.auctions = args.get("auctions", cfg.xmark.auctions);
    cfg.queries = args.get("queries", cfg.queries);
    cfg.tau = args.get("tau", cfg.tau);
    cfg.zipf_s = args.get("zipf", cfg.zipf_s);
    cfg.workers = args.get("workers", cfg.workers);
    cfg.seed = args.get("seed", cfg.seed);
    let out_path = args.get("out", "BENCH_serving.json".to_string());

    println!(
        "open-loop serving bench — XMark persons={} items={} auctions={}, {} shapes, zipf s={}, {} pool workers",
        cfg.xmark.persons, cfg.xmark.items, cfg.xmark.auctions, cfg.queries, cfg.zipf_s, cfg.workers
    );
    let scenarios = [
        ServingScenario::steady(smoke),
        ServingScenario::overload(smoke),
    ];
    let r = serving::run(&cfg, &scenarios);
    print!("{}", serving::render(&r));

    let json = serving::to_json(&cfg, &r);
    std::fs::write(&out_path, &json).expect("write BENCH_serving.json");
    println!("\nwrote {out_path}");
}
