//! The closed-loop serving window, the single-client count pass and the
//! per-layer probes, all driving the engine through its public API.

use crate::stats::median;
use crate::trace::SpanLog;
use crate::workloads::{load_side, Bench, Workload, SIDE_READ_SHARE, SIDE_VARIANTS};
use rand::prelude::*;
use rox_core::{run_plan_with_env, run_rox_with_env, EdgeOpKind, EngineRun, PlanReuse, RoxOptions};
use rox_ops::Relation;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Closed-loop clients in the window: one per core of a two-core machine.
pub const CLIENTS: usize = 2;
/// Think time of the churn writer between commits: a closed-loop writer
/// that waits for each acknowledgement, then pauses, so the log grows at a
/// bounded rate (a few MB/s) instead of saturating the disk.
pub const WRITER_THINK: Duration = Duration::from_millis(1);
/// The churn reader drops all residency this many times per window.
pub const SWEEPS_PER_WINDOW: u32 = 20;
/// The churn reader checkpoints this many times per window.
pub const CHECKPOINTS_PER_WINDOW: u32 = 5;
/// How often the window's sampler reads the live heap.
pub const MEMORY_SAMPLE_EVERY: Duration = Duration::from_millis(5);
/// Length of the alternating untraced/traced slices of a traced window.
pub const TRACE_SLICE: Duration = Duration::from_millis(250);

/// Served answers per `(query, side variant)`, kept as content hashes and
/// compared with the reference answers after the window.
#[derive(Default)]
pub struct Checker {
    answers: Mutex<HashMap<(usize, u32), HashMap<u64, u64>>>,
}

fn relation_hash(r: &Relation) -> u64 {
    let mut h = DefaultHasher::new();
    r.schema().hash(&mut h);
    r.docs().hash(&mut h);
    r.len().hash(&mut h);
    for &v in r.schema() {
        r.col(v).hash(&mut h);
    }
    h.finish()
}

impl Checker {
    fn record(&self, key: (usize, u32), output: &Relation) {
        let hash = relation_hash(output);
        *self
            .answers
            .lock()
            .expect("checker lock")
            .entry(key)
            .or_default()
            .entry(hash)
            .or_default() += 1;
    }

    /// Every key answered so far, sorted.
    pub fn keys(&self) -> Vec<(usize, u32)> {
        let mut keys: Vec<_> = self
            .answers
            .lock()
            .expect("checker lock")
            .keys()
            .copied()
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Served answers that differ from `references` (parallel to `keys`).
    pub fn mismatches(&self, keys: &[(usize, u32)], references: &[Relation]) -> u64 {
        let answers = self.answers.lock().expect("checker lock");
        keys.iter()
            .zip(references)
            .map(|(key, reference)| {
                let want = relation_hash(reference);
                answers.get(key).map_or(0, |served| {
                    served
                        .iter()
                        .filter(|(&h, _)| h != want)
                        .map(|(_, &n)| n)
                        .sum()
                })
            })
            .sum()
    }
}

/// The query sequence of one client.
pub struct Sequence {
    rng: StdRng,
    order: Vec<usize>,
    pos: usize,
}

impl Sequence {
    /// Client `client` of `clients`, from `seed`. DBLP clients walk one
    /// seeded order of the combinations from evenly spaced offsets; the
    /// XMark clients draw shapes uniformly.
    ///
    /// The DBLP order interleaves the area groups in proportion, each group
    /// shuffled: the heavy same-area joins then spread evenly over the
    /// window instead of clustering where a plain shuffle put them.
    pub fn new(bench: &Bench, seed: u64, client: usize, clients: usize) -> Sequence {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0DE5);
        let mut groups: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, q) in bench.queries[..bench.main_queries].iter().enumerate() {
            groups.entry(q.group).or_default().push(i);
        }
        let mut groups: Vec<Vec<usize>> = groups.into_values().collect();
        for g in &mut groups {
            g.shuffle(&mut rng);
        }
        let mut taken = vec![0usize; groups.len()];
        let mut order = Vec::with_capacity(bench.main_queries);
        while order.len() < bench.main_queries {
            // The group furthest behind its share goes next.
            let g = (0..groups.len())
                .filter(|&g| taken[g] < groups[g].len())
                .min_by(|&a, &b| {
                    let share = |g: usize| (taken[g] + 1) as f64 / groups[g].len() as f64;
                    share(a).total_cmp(&share(b))
                })
                .expect("a group with queries left");
            order.push(groups[g][taken[g]]);
            taken[g] += 1;
        }
        Sequence {
            rng: StdRng::seed_from_u64(seed.wrapping_add(client as u64 + 1)),
            pos: client * order.len() / clients.max(1),
            order,
        }
    }

    /// The next query index.
    pub fn next(&mut self, bench: &Bench) -> usize {
        match bench.workload {
            Workload::DblpOptimize => {
                let q = self.order[self.pos % self.order.len()];
                self.pos += 1;
                q
            }
            Workload::XmarkReplay => self.rng.random_range(0..bench.main_queries),
            Workload::XmarkChurn => {
                if self.rng.random_bool(SIDE_READ_SHARE) {
                    self.rng
                        .random_range(bench.main_queries..bench.queries.len())
                } else {
                    self.rng.random_range(0..bench.main_queries)
                }
            }
        }
    }

    /// The first `n` queries of the seeded DBLP order, or the first `n`
    /// main queries of an XMark workload — the probe set.
    pub fn probe_set(&self, bench: &Bench, n: usize) -> Vec<usize> {
        match bench.workload {
            Workload::DblpOptimize => self.order.iter().take(n).copied().collect(),
            _ => (0..n.min(bench.main_queries)).collect(),
        }
    }
}

/// One served request.
struct Served {
    /// Compile + submit + wait.
    pub latency: Duration,
    /// Ticket wall minus the engine's own run time (traced requests only).
    pub queue: Option<Duration>,
    /// Query compile time (traced requests only).
    pub compile: Option<Duration>,
    /// The engine's answer, or why there is none.
    pub run: Result<EngineRun, String>,
}

/// Serve query `q` (side variant `variant`) through
/// `try_submit(..).wait()`, record its answer, and with `log` record the
/// request's spans.
fn serve(
    bench: &Bench,
    q: usize,
    variant: u32,
    checker: &Checker,
    log: Option<(&mut SpanLog, u64)>,
) -> Served {
    let options = bench.workload.options();
    let t0 = Instant::now();
    let graph = rox_joingraph::compile_query(&bench.queries[q].text);
    let t1 = log.as_ref().map(|_| Instant::now());
    let outcome = graph.and_then(|g| {
        let ticket = bench
            .engine
            .try_submit(&g, options)
            .map_err(|e| e.to_string())?;
        let out = ticket.wait();
        out.result
            .map(|run| (run, out.finished_at))
            .map_err(|e| e.to_string())
    });
    let t2 = Instant::now();
    let (mut queue, mut compile) = (None, None);
    if let (Some((log, req)), Some(t1)) = (log, t1) {
        let root = log.record(req, "request", None, t0, t2);
        log.record(req, "joingraph.compile", Some(root), t0, t1);
        let ticket = log.record(req, "engine.ticket", Some(root), t1, t2);
        if let Ok((run, finished)) = &outcome {
            let run_start = finished.checked_sub(run.total_wall).unwrap_or(t1).max(t1);
            log.record(req, "engine.queue", Some(ticket), t1, run_start);
            log.record(req, "engine.run", Some(ticket), run_start, *finished);
            queue = Some(run_start - t1);
        }
        compile = Some(t1 - t0);
    }
    let run = outcome.map(|(run, _)| {
        checker.record((q, variant), &run.output);
        run
    });
    Served {
        latency: t2 - t0,
        queue,
        compile,
        run,
    }
}

/// Reload side document `doc` with its next variant and commit the
/// reload through the WAL. Returns when the commit started and its wall
/// time.
fn commit_side(bench: &Bench, doc: usize) -> Result<(Instant, Duration), String> {
    let mut current = bench.side[doc].write().expect("side lock");
    let next = (*current + 1) % SIDE_VARIANTS;
    load_side(bench.engine.catalog(), &bench.scale, doc, next);
    // The catalog holds the new content whether or not the commit succeeds.
    *current = next;
    let t = Instant::now();
    let lsn = bench
        .engine
        .try_invalidate_document(&crate::workloads::side_uri(doc))
        .map_err(|e| e.to_string())?;
    let wall = t.elapsed();
    lsn.map(|_| (t, wall))
        .ok_or_else(|| "commit on an engine without a log".to_string())
}

/// Serve query `q`, holding its side document's read lock if it has one.
fn serve_locked(
    bench: &Bench,
    q: usize,
    checker: &Checker,
    log: Option<(&mut SpanLog, u64)>,
) -> Served {
    match bench.queries[q].side {
        None => serve(bench, q, 0, checker, log),
        Some(doc) => {
            let variant = bench.side[doc].read().expect("side lock");
            serve(bench, q, *variant, checker, log)
        }
    }
}

/// What one query client saw.
#[derive(Default)]
pub struct ClientLog {
    /// `(start offset, latency, traced)` of every successful request.
    pub latencies: Vec<(Duration, Duration, bool)>,
    /// Queue waits of traced requests.
    pub queue: Vec<Duration>,
    /// Compile times of traced requests.
    pub compile: Vec<Duration>,
    /// Latencies of the first request after each residency sweep.
    pub refaults: Vec<Duration>,
    /// `(start, end)` offsets of each checkpoint.
    pub checkpoints: Vec<(Duration, Duration)>,
    /// `(start offset, latency)` of every acknowledged commit.
    pub commits: Vec<(Duration, Duration)>,
    /// Live heap samples (MiB), one per [`MEMORY_SAMPLE_EVERY`].
    pub heap: Vec<f64>,
    /// Operations attempted (requests and commits).
    pub attempted: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// First error seen, for the run record.
    pub first_error: Option<String>,
}

impl ClientLog {
    fn fail(&mut self, e: String) {
        self.errors += 1;
        self.first_error.get_or_insert(e);
    }

    /// Fold another client's log into this one.
    pub fn absorb(&mut self, other: ClientLog) {
        self.latencies.extend(other.latencies);
        self.queue.extend(other.queue);
        self.compile.extend(other.compile);
        self.refaults.extend(other.refaults);
        self.checkpoints.extend(other.checkpoints);
        self.commits.extend(other.commits);
        self.heap.extend(other.heap);
        self.attempted += other.attempted;
        self.errors += other.errors;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// The measured window: [`CLIENTS`] closed-loop clients for `seconds`.
/// For the churn workload client 0 reads (and sweeps and checkpoints) and
/// client 1 writes. With `traced`, alternating slices of
/// [`TRACE_SLICE`] record spans.
pub struct Window {
    /// Wall time of the window.
    pub elapsed: Duration,
    /// Everything the clients saw.
    pub clients: ClientLog,
    /// Spans of traced requests.
    pub spans: SpanLog,
}

/// The window's time frame, shared by its threads.
#[derive(Clone, Copy)]
struct Frame {
    /// Offsets of spans count from here.
    epoch: Instant,
    start: Instant,
    duration: Duration,
}

impl Frame {
    fn deadline(&self) -> Instant {
        self.start + self.duration
    }
}

/// Run the measured window.
pub fn window(
    bench: &Bench,
    checker: &Checker,
    seconds: f64,
    traced: bool,
    epoch: Instant,
) -> Window {
    let frame = Frame {
        epoch,
        start: Instant::now(),
        duration: Duration::from_secs_f64(seconds),
    };
    let churn = bench.workload == Workload::XmarkChurn;
    let outs: Vec<(ClientLog, SpanLog)> = std::thread::scope(|s| {
        let sampler = s.spawn(move || {
            let mut out = ClientLog::default();
            let mut next = frame.start;
            while next < frame.deadline() {
                out.heap
                    .push(crate::heap::live_bytes() as f64 / (1024.0 * 1024.0));
                next += MEMORY_SAMPLE_EVERY;
                std::thread::sleep(next.saturating_duration_since(Instant::now()));
            }
            (out, SpanLog::new(epoch))
        });
        let mut handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    if churn && c == 1 {
                        writer(bench, frame)
                    } else {
                        reader(bench, checker, c, traced, frame)
                    }
                })
            })
            .collect();
        handles.push(sampler);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = frame.start.elapsed();
    let mut all = ClientLog::default();
    let mut spans = SpanLog::new(epoch);
    for (c, log) in outs {
        all.absorb(c);
        spans.absorb(log);
    }
    Window {
        elapsed,
        clients: all,
        spans,
    }
}

fn reader(
    bench: &Bench,
    checker: &Checker,
    client: usize,
    traced: bool,
    frame: Frame,
) -> (ClientLog, SpanLog) {
    let churn = bench.workload == Workload::XmarkChurn;
    let (start, deadline) = (frame.start, frame.deadline());
    let mut out = ClientLog::default();
    let mut log = SpanLog::new(frame.epoch);
    let mut seq = Sequence::new(bench, bench.seed, client, CLIENTS);
    let sweep_every = frame.duration / SWEEPS_PER_WINDOW;
    let checkpoint_every = frame.duration / CHECKPOINTS_PER_WINDOW;
    let (mut next_sweep, mut next_checkpoint) = (start + sweep_every, start + checkpoint_every);
    let mut refault = false;
    let mut n = 0u64;
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        if churn && now >= next_checkpoint {
            next_checkpoint += checkpoint_every;
            out.attempted += 1;
            let req = ((client as u64) << 40) | n;
            n += 1;
            let t = Instant::now();
            match bench.engine.checkpoint() {
                Ok(_) => {
                    let end = Instant::now();
                    log.record(req, "wal.checkpoint", None, t, end);
                    out.checkpoints.push((t - start, end - start));
                }
                Err(e) => out.fail(format!("checkpoint: {e}")),
            }
            continue;
        }
        if churn && now >= next_sweep {
            next_sweep += sweep_every;
            let req = ((client as u64) << 40) | n;
            n += 1;
            let t = Instant::now();
            bench.engine.release_residency();
            log.record(req, "storage.sweep", None, t, Instant::now());
            refault = true;
            continue;
        }
        let q = seq.next(bench);
        let req = ((client as u64) << 40) | n;
        n += 1;
        let traced_now = traced && ((now - start).as_nanos() / TRACE_SLICE.as_nanos()) % 2 == 1;
        out.attempted += 1;
        let served = serve_locked(bench, q, checker, traced_now.then_some((&mut log, req)));
        match served.run {
            Ok(_) => {
                out.latencies
                    .push((now - start, served.latency, traced_now));
                out.queue.extend(served.queue);
                out.compile.extend(served.compile);
                if std::mem::take(&mut refault) {
                    out.refaults.push(served.latency);
                }
            }
            Err(e) => out.fail(format!("query {q}: {e}")),
        }
    }
    (out, log)
}

fn writer(bench: &Bench, frame: Frame) -> (ClientLog, SpanLog) {
    let mut out = ClientLog::default();
    let mut log = SpanLog::new(frame.epoch);
    let mut rng = StdRng::seed_from_u64(bench.seed ^ 0x00C0_FFEE);
    for k in 0u64.. {
        if Instant::now() >= frame.deadline() {
            break;
        }
        let req = (1 << 40) | k;
        let doc = rng.random_range(0..bench.side.len());
        out.attempted += 1;
        let t = Instant::now();
        match commit_side(bench, doc) {
            Ok((committed, wall)) => {
                let root = log.record(req, "wal.write", None, t, Instant::now());
                log.record(req, "wal.commit", Some(root), committed, committed + wall);
                out.commits.push((committed - frame.start, wall));
            }
            Err(e) => out.fail(format!("commit side{doc}: {e}")),
        }
        std::thread::sleep(WRITER_THINK);
    }
    (out, log)
}

/// Deterministic per-layer counts from the single-client count pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Queries served.
    pub queries: u64,
    /// Sampling work (tuples in + out + probes) across the queries.
    pub sample_tuples: u64,
    /// Full-execution work across the queries.
    pub exec_tuples: u64,
    /// Tuples read by full executions.
    pub exec_tuples_in: u64,
    /// Output rows returned.
    pub output_rows: u64,
    /// Sum of `edge_log` result rows (the intermediates).
    pub intermediate_rows: u64,
    /// Executed edges per operator, keyed by its label.
    pub edges: BTreeMap<&'static str, u64>,
    /// Guard drift checks performed.
    pub spot_checks: u64,
    /// Commits acknowledged.
    pub commits: u64,
    /// Fsyncs those commits issued.
    pub fsyncs: u64,
    /// WAL bytes those commits appended.
    pub wal_bytes: u64,
    /// Buffer-pool misses over the pass.
    pub pool_misses: u64,
    /// Buffer-pool evictions over the pass.
    pub evictions: u64,
}

/// The count pass: `scale.count_requests` operations of one client on a
/// fresh set-up, in a seeded order; for the churn workload every fourth
/// operation is a commit and every 24th a residency sweep. Every count it
/// returns repeats exactly for a given seed; failed operations go to the
/// returned log instead of the counts.
pub fn count_pass(bench: &Bench, checker: &Checker) -> (Counts, ClientLog) {
    let mut c = Counts::default();
    for op in [
        EdgeOpKind::StepJoin,
        EdgeOpKind::IndexNLValueJoin,
        EdgeOpKind::HashValueJoin,
        EdgeOpKind::Select,
    ] {
        c.edges.insert(op.label(), 0);
    }
    let churn = bench.workload == Workload::XmarkChurn;
    let mut seq = Sequence::new(bench, bench.seed ^ 0xC0_0475, 0, 1);
    let mut log = ClientLog::default();
    let pages_before = bench.engine.stats().pages;
    for k in 0..bench.scale.count_requests {
        if churn && k % 24 == 0 {
            bench.engine.release_residency();
        }
        log.attempted += 1;
        if churn && k % 4 == 3 {
            let before = bench.engine.stats().wal;
            if let Err(e) = commit_side(bench, (k / 4) % bench.side.len()) {
                log.fail(format!("count pass commit: {e}"));
                continue;
            }
            let after = bench.engine.stats().wal;
            c.commits += after.commits - before.commits;
            c.fsyncs += after.fsyncs - before.fsyncs;
            c.wal_bytes += after.bytes - before.bytes;
            continue;
        }
        let q = seq.next(bench);
        let run = match serve_locked(bench, q, checker, None).run {
            Ok(run) => run,
            Err(e) => {
                log.fail(format!("count pass query {q}: {e}"));
                continue;
            }
        };
        c.queries += 1;
        c.sample_tuples += run.sample_cost.total();
        c.exec_tuples += run.exec_cost.total();
        c.exec_tuples_in += run.exec_cost.tuples_in;
        c.output_rows += run.output.len() as u64;
        c.spot_checks += run.spot_checks.len() as u64;
        for e in &run.edge_log {
            c.intermediate_rows += e.result_rows as u64;
            *c.edges.entry(e.op.label()).or_default() += 1;
        }
    }
    let pages = bench.engine.stats().pages;
    c.pool_misses = pages.misses - pages_before.misses;
    c.evictions = pages.evictions - pages_before.evictions;
    (c, log)
}

/// Probe timings, per query the median of its repetitions, averaged over
/// the probe set.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    /// Queries probed.
    pub queries: usize,
    /// Repetitions per query and kind.
    pub reps: usize,
    /// `run_rox_with_env` on an engine session (R).
    pub optimize_ms: f64,
    /// `run_plan_with_env` of R's executed order (r).
    pub replay_ms: f64,
    /// The engine's guarded replay of its cached plan.
    pub guarded_ms: f64,
}

/// Time the optimizer, a pure plan replay and the engine's guarded replay
/// on the probe set, alternating the three kinds.
pub fn probe(bench: &Bench, log: &mut SpanLog) -> Result<Probe, String> {
    let seq = Sequence::new(bench, bench.seed, 0, 1);
    let set = seq.probe_set(bench, bench.scale.probe_queries);
    let reps = bench.scale.probe_reps;
    let optimize = RoxOptions {
        plan_reuse: PlanReuse::AlwaysOptimize,
        ..bench.workload.options()
    };
    let guarded = RoxOptions {
        plan_reuse: PlanReuse::ReuseValidated,
        ..optimize
    };
    let (mut r_opt, mut r_plan, mut r_guard) = (0.0, 0.0, 0.0);
    for (i, &q) in set.iter().enumerate() {
        let req = (1 << 50) | i as u64;
        let graph = rox_joingraph::compile_query(&bench.queries[q].text)?;
        let env = bench.engine.session(&graph).map_err(|e| e.to_string())?;
        // Seeds the plan cache so the guarded kind replays.
        bench
            .engine
            .run(&graph, guarded)
            .map_err(|e| e.to_string())?;
        let (mut opt, mut plan, mut guard) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..reps {
            let t = Instant::now();
            let report = run_rox_with_env(&env, &graph, optimize).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            run_plan_with_env(&env, &graph, &report.executed_order).map_err(|e| e.message)?;
            let t2 = Instant::now();
            bench
                .engine
                .run(&graph, guarded)
                .map_err(|e| e.to_string())?;
            let t3 = Instant::now();
            log.record(req, "rox.optimize", None, t, t1);
            log.record(req, "rox.replay", None, t1, t2);
            log.record(req, "guard.replay", None, t2, t3);
            opt.push((t1 - t).as_secs_f64() * 1e3);
            plan.push((t2 - t1).as_secs_f64() * 1e3);
            guard.push((t3 - t2).as_secs_f64() * 1e3);
        }
        r_opt += median(&opt);
        r_plan += median(&plan);
        r_guard += median(&guard);
    }
    let n = set.len().max(1) as f64;
    Ok(Probe {
        queries: set.len(),
        reps,
        optimize_ms: r_opt / n,
        replay_ms: r_plan / n,
        guarded_ms: r_guard / n,
    })
}
