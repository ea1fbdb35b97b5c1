//! The three workloads: their corpora, query sets, set-up and reference
//! answers. Why each exists is recorded in the README next to this crate.

use crate::trace::SpanLog;
use rox_core::{run_rox, PlanReuse, RoxEngine, RoxOptions};
use rox_datagen::{
    dblp_query, generate_dblp, generate_xmark, grouped_combinations, xmark_query, DblpConfig,
    XmarkConfig,
};
use rox_ops::Relation;
use rox_storage::{Snapshot, DEFAULT_PAGE_SIZE};
use rox_xmldb::Catalog;
use std::path::Path;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// The workloads `BENCHMARK.json` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Guarded plan replay of a Q1 mix over an in-memory XMark document.
    XmarkReplay,
    /// Per-query optimization of the DBLP 4-venue author joins.
    DblpOptimize,
    /// Q1 reads over a pool-limited recovered snapshot while a writer
    /// commits side-document reloads through the WAL.
    XmarkChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::XmarkReplay,
        Workload::DblpOptimize,
        Workload::XmarkChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::XmarkReplay => "xmark-replay",
            Workload::DblpOptimize => "dblp-optimize",
            Workload::XmarkChurn => "xmark-churn",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The options every request of this workload is served with.
    pub fn options(self) -> RoxOptions {
        RoxOptions {
            tau: 100,
            plan_reuse: match self {
                Workload::DblpOptimize => PlanReuse::AlwaysOptimize,
                _ => PlanReuse::ReuseValidated,
            },
            ..RoxOptions::default()
        }
    }
}

/// Corpus sizes and fixed amounts of work; [`Scale::tiny`] is the
/// self-test's seconds-scale variant of [`Scale::full`].
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// XMark `(persons, items, auctions)` of the main document.
    pub xmark: (usize, usize, usize),
    /// XMark `(persons, items, auctions)` of each churn side document.
    pub side: (usize, usize, usize),
    /// DBLP `size_factor`.
    pub dblp_size_factor: f64,
    /// Independent set-ups per run (`setup_s` is their median).
    pub setups: usize,
    /// Requests in the single-client count pass.
    pub count_requests: usize,
    /// Queries the per-layer probes time.
    pub probe_queries: usize,
    /// Alternating repetitions per probed query and kind.
    pub probe_reps: usize,
}

impl Scale {
    /// The benchmark's configuration.
    pub fn full() -> Scale {
        Scale {
            xmark: (3000, 2500, 2500),
            side: (60, 50, 50),
            dblp_size_factor: 0.1,
            setups: 9,
            count_requests: 96,
            probe_queries: 16,
            probe_reps: 5,
        }
    }

    /// A configuration that runs every workload in seconds.
    pub fn tiny() -> Scale {
        Scale {
            xmark: (300, 250, 250),
            side: (20, 15, 15),
            dblp_size_factor: 0.02,
            setups: 2,
            count_requests: 24,
            probe_queries: 3,
            probe_reps: 2,
        }
    }
}

/// The Q1 shapes (`xmark_query` op and threshold): a dozen distinct
/// join-graph fingerprints whose selectivities span the price range.
pub const Q1_SHAPES: [(&str, f64); 12] = [
    ("<", 60.0),
    ("<", 100.0),
    ("<", 145.0),
    ("<", 190.0),
    ("<", 240.0),
    ("<", 280.0),
    (">", 20.0),
    (">", 60.0),
    (">", 100.0),
    (">", 145.0),
    (">", 190.0),
    (">", 240.0),
];

/// The Q1 shapes the churn reader runs against each side document.
pub const SIDE_SHAPES: [(&str, f64); 3] = [("<", 145.0), (">", 100.0), ("<", 240.0)];
/// Side documents the churn writer reloads.
pub const SIDE_DOCS: usize = 8;
/// Distinct contents each side document cycles through.
pub const SIDE_VARIANTS: u32 = 4;
/// Share of churn reads that go to a side document.
pub const SIDE_READ_SHARE: f64 = 0.25;

/// URI of churn side document `i`.
pub fn side_uri(i: usize) -> String {
    format!("side{i}.xml")
}

fn q1_on(uri: &str, op: &str, threshold: f64) -> String {
    xmark_query(op, threshold).replace("\"xmark.xml\"", &format!("\"{uri}\""))
}

/// One distinct query of a workload.
#[derive(Debug, Clone)]
pub struct Query {
    /// The XQuery text a request sends.
    pub text: String,
    /// The churn side document it reads, if any.
    pub side: Option<usize>,
    /// The DBLP area-distribution group (`"2:2"`, `"3:1"`, `"4:0"`), or
    /// `""`.
    pub group: &'static str,
}

/// A set-up workload, ready to serve.
pub struct Bench {
    /// Which workload this is.
    pub workload: Workload,
    /// The seed of the request stream.
    pub seed: u64,
    /// Corpus sizes and fixed work amounts.
    pub scale: Scale,
    /// The serving engine.
    pub engine: Arc<RoxEngine>,
    /// Every distinct query; the first `main_queries` read only the main
    /// corpus.
    pub queries: Vec<Query>,
    /// See [`Bench::queries`].
    pub main_queries: usize,
    /// Churn only: the current variant of each side document. A reader
    /// holds the read lock across a side query, the writer holds the write
    /// lock across reload and commit: the engine has no atomic "replace
    /// document" call, so a read between `Catalog::load_str` and the
    /// invalidation could pair new content with old indexes.
    pub side: Vec<RwLock<u32>>,
    /// Source XML bytes of the corpus.
    pub xml_bytes: u64,
    /// Snapshot bytes of the corpus (written at set-up by the churn
    /// workload; encoded on demand by the in-memory ones).
    pub snapshot_bytes: Option<u64>,
    /// Sum of the timed set-up phases.
    pub setup_time: Duration,
}

// The corpora are fixed (the generators' default seeds); the run seed
// draws the request stream. Generator seeds move these small corpora's
// join sizes enough (DBLP throughput moved by a third across seeds) that a
// per-seed corpus would measure the corpus, not the code.
fn main_xmark(scale: &Scale) -> XmarkConfig {
    let (persons, items, auctions) = scale.xmark;
    XmarkConfig {
        persons,
        items,
        auctions,
        ..XmarkConfig::default()
    }
}

fn side_xmark(scale: &Scale, doc: usize, variant: u32) -> XmarkConfig {
    let (persons, items, auctions) = scale.side;
    XmarkConfig {
        persons,
        items,
        auctions,
        seed: XmarkConfig::default().seed + 1 + (doc as u64) * 16 + u64::from(variant),
        ..XmarkConfig::default()
    }
}

fn dblp_config(scale: &Scale) -> DblpConfig {
    DblpConfig {
        size_factor: scale.dblp_size_factor,
        ..DblpConfig::default()
    }
}

/// Generate the workload's main corpus (DBLP venues or `xmark.xml`).
fn generate_main(workload: Workload, scale: &Scale, catalog: &Arc<Catalog>) {
    match workload {
        Workload::DblpOptimize => {
            generate_dblp(catalog, &dblp_config(scale));
        }
        _ => {
            generate_xmark(catalog, "xmark.xml", &main_xmark(scale));
        }
    }
}

/// Load variant `variant` of side document `doc` into `catalog`.
pub fn load_side(catalog: &Arc<Catalog>, scale: &Scale, doc: usize, variant: u32) {
    generate_xmark(catalog, &side_uri(doc), &side_xmark(scale, doc, variant));
}

fn xml_bytes(catalog: &Catalog) -> u64 {
    catalog
        .doc_ids()
        .into_iter()
        .map(|id| rox_xmldb::serialize::serialize_document(&catalog.doc(id)).len() as u64)
        .sum()
}

/// Time `f` as a set-up phase: a child span of `parent`, added to `total`.
fn phase<T>(
    log: &mut SpanLog,
    req: u64,
    parent: usize,
    name: &'static str,
    total: &mut Duration,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    log.record(req, name, Some(parent), start, end);
    *total += end - start;
    out
}

fn queries(workload: Workload) -> (Vec<Query>, usize) {
    let main: Vec<Query> = match workload {
        Workload::DblpOptimize => grouped_combinations()
            .into_iter()
            .map(|(combo, group)| Query {
                text: dblp_query(&combo),
                side: None,
                group,
            })
            .collect(),
        _ => Q1_SHAPES
            .iter()
            .map(|&(op, t)| Query {
                text: xmark_query(op, t),
                side: None,
                group: "",
            })
            .collect(),
    };
    let main_queries = main.len();
    let mut all = main;
    if workload == Workload::XmarkChurn {
        for doc in 0..SIDE_DOCS {
            for &(op, t) in &SIDE_SHAPES {
                all.push(Query {
                    text: q1_on(&side_uri(doc), op, t),
                    side: Some(doc),
                    group: "",
                });
            }
        }
    }
    (all, main_queries)
}

/// Build the workload's corpus and engine (`seed` is kept for the request
/// stream), recording each phase as a child span of one `setup` root span.
pub fn setup(
    workload: Workload,
    scale: Scale,
    seed: u64,
    dir: &Path,
    log: &mut SpanLog,
    req: u64,
) -> Result<Bench, String> {
    let started = Instant::now();
    let root = log.record(req, "setup", None, started, started);
    let mut total = Duration::ZERO;
    let catalog = Arc::new(Catalog::new());
    phase(log, req, root, "xmldb.generate", &mut total, || {
        generate_main(workload, &scale, &catalog);
        if workload == Workload::XmarkChurn {
            for doc in 0..SIDE_DOCS {
                load_side(&catalog, &scale, doc, 0);
            }
        }
    });
    let xml_bytes = xml_bytes(&catalog);
    let mut engine = RoxEngine::new(Arc::clone(&catalog));
    phase(log, req, root, "index.build", &mut total, || {
        for id in catalog.doc_ids() {
            engine.store().indexes(id);
        }
    });
    let mut snapshot_bytes = None;
    if workload == Workload::XmarkChurn {
        std::fs::create_dir_all(dir).map_err(|e| format!("work dir {}: {e}", dir.display()))?;
        let saved = phase(log, req, root, "storage.save", &mut total, || {
            engine.make_durable(dir)
        })
        .map_err(|e| format!("make_durable: {e}"))?;
        snapshot_bytes = Some(saved.file_bytes);
        drop(engine);
        // A pool of a quarter of the snapshot's pages: the working set
        // does not fit, so sweeps re-fault through the buffer pool.
        let frames = (saved.pages as usize / 4).max(8);
        let (recovered, _) = phase(log, req, root, "storage.recover", &mut total, || {
            RoxEngine::recover(dir, Some(frames))
        })
        .map_err(|e| format!("recover: {e}"))?;
        engine = recovered;
    }
    let engine = Arc::new(engine);
    let (queries, main_queries) = queries(workload);
    let side_docs = if workload == Workload::XmarkChurn {
        SIDE_DOCS
    } else {
        0
    };
    if workload != Workload::DblpOptimize {
        // First touch of every shape: seeds the plan cache and base lists.
        let options = workload.options();
        phase(log, req, root, "engine.warmup", &mut total, || {
            queries.iter().try_for_each(|q| {
                let graph = rox_joingraph::compile_query(&q.text)?;
                engine
                    .run(&graph, options)
                    .map(drop)
                    .map_err(|e| e.to_string())
            })
        })?;
    }
    log.close(root, Instant::now());
    Ok(Bench {
        workload,
        seed,
        scale,
        engine,
        queries,
        main_queries,
        side: (0..side_docs).map(|_| RwLock::new(0)).collect(),
        xml_bytes,
        snapshot_bytes,
        setup_time: total,
    })
}

impl Bench {
    /// Snapshot bytes per source XML byte of the corpus.
    pub fn bytes_per_xml_byte(&self) -> f64 {
        let snapshot = self.snapshot_bytes.unwrap_or_else(|| {
            Snapshot::encode_image(self.engine.store(), DEFAULT_PAGE_SIZE)
                .1
                .file_bytes
        });
        crate::stats::ratio(snapshot as f64, self.xml_bytes as f64)
    }

    /// The reference answers for `keys` — `(query, side variant)` pairs —
    /// each from a standalone [`run_rox`] on a catalog of its own.
    pub fn references(&self, keys: &[(usize, u32)]) -> Result<Vec<Relation>, String> {
        let mut main: Option<Arc<Catalog>> = None;
        keys.iter()
            .map(|&(query, variant)| {
                let q = &self.queries[query];
                let catalog = match q.side {
                    None => Arc::clone(main.get_or_insert_with(|| {
                        let catalog = Arc::new(Catalog::new());
                        generate_main(self.workload, &self.scale, &catalog);
                        catalog
                    })),
                    Some(doc) => {
                        // Same document ids as the served catalog: the main
                        // document and the lower side documents reserved.
                        let catalog = Arc::new(Catalog::new());
                        catalog.reserve("xmark.xml");
                        for lower in 0..doc {
                            catalog.reserve(&side_uri(lower));
                        }
                        load_side(&catalog, &self.scale, doc, variant);
                        catalog
                    }
                };
                let graph = rox_joingraph::compile_query(&q.text)?;
                run_rox(catalog, &graph, self.workload.options())
                    .map(|r| r.output)
                    .map_err(|e| e.to_string())
            })
            .collect()
    }
}
