//! Partitioned (morsel-parallel) variants of the pair-producing joins.
//!
//! Both operators split their *probe* input into contiguous morsels, run
//! the sequential operator per morsel on a worker pool, and concatenate the
//! per-morsel outputs in morsel order. Because
//!
//! * the sequential operators emit pairs in context order,
//! * morsels are contiguous, in-order slices of the context, and
//! * results are merged back in morsel order,
//!
//! the output is **bit-identical** to the sequential run — document order
//! is preserved without a sort. Cost counters are likewise summed in morsel
//! order; since every charge is per-tuple, the totals equal the sequential
//! charges exactly.
//!
//! Cut-off execution is inherently sequential (the cut-off is a global
//! scan position, §2.3), so these variants take no `limit`: they exist for
//! *full* edge execution, while sampling parallelizes one level up (across
//! candidate edges, see `rox-core`).

use crate::axis::Axis;
use crate::cost::{choose_step_kernel, Cost, StepKernel};
use crate::cutoff::JoinOut;
use crate::staircase::{step_join_kernel, step_join_scratch, StepScratch};
use rox_index::SymbolTable;
use rox_par::{chunk_ranges, Parallelism, WorkerPool};
use rox_xmldb::{Document, Pre};

/// Minimum context tuples per worker thread. A parallel fan-out engages
/// only once the probe input reaches **twice** this (1024 tuples — see
/// [`Parallelism::effective_threads`]); below that the partitioned
/// operators fall back to the sequential path, where the fan-out would
/// cost more than it saves.
///
/// Re-derived for the pooled path: dispatching a batch onto the always-on
/// [`WorkerPool`] costs roughly a condvar wake plus atomic cursor claims
/// (~1–3 µs), versus the tens of microseconds a per-call
/// `std::thread::scope` spawn used to cost. At ~15–30 ns of staircase
/// probe/merge work per context tuple, 512 tuples ≈ 8–15 µs per worker —
/// several times the dispatch cost — so the gate drops from 2048 to 512.
pub const MIN_PARTITION_INPUT: usize = 512;

/// Partitioned [`step_join`](crate::staircase::step_join()): evaluates
/// `axis::cands` for the full context
/// with the work split across `par` worker threads. Produces exactly the
/// pairs, order, and cost charges of `step_join(doc, axis, ctx, cands,
/// None, cost)`.
pub fn step_join_partitioned(
    doc: &Document,
    axis: Axis,
    ctx: &[Pre],
    cands: &[Pre],
    par: Parallelism,
    cost: &mut Cost,
) -> JoinOut<Pre> {
    step_join_partitioned_scratch(
        doc,
        axis,
        ctx,
        cands,
        None,
        par,
        StepScratch::default(),
        cost,
    )
}

/// As [`step_join_partitioned`] with caller-provided scratch state (a
/// cached candidate set; see [`StepScratch`]) and an optional
/// [`WorkerPool`] handle (`None` runs on the process-shared pool). The
/// staircase kernel is chosen **once** over the full context, then run per
/// morsel — every kernel charges and emits identically, so this only fixes
/// which kernel's wall-clock profile the whole call gets.
#[allow(clippy::too_many_arguments)]
pub fn step_join_partitioned_scratch(
    doc: &Document,
    axis: Axis,
    ctx: &[Pre],
    cands: &[Pre],
    workers: Option<&WorkerPool>,
    par: Parallelism,
    scratch: StepScratch<'_>,
    cost: &mut Cost,
) -> JoinOut<Pre> {
    let threads = par.effective_threads(ctx.len(), MIN_PARTITION_INPUT);
    if threads <= 1 {
        return step_join_scratch(doc, axis, ctx, cands, None, scratch, cost);
    }
    let kernel = choose_step_kernel(axis, ctx.len(), cands.len(), false);
    // Resolve the bitset kernel's candidate set once, up front, so the
    // morsels share it instead of each building their own.
    let shared_set =
        (kernel == StepKernel::Bitset).then(|| crate::staircase::resolve_cands_set(cands, scratch));
    let morsel_scratch = StepScratch {
        cands_set: shared_set.as_deref(),
    };
    let morsels = chunk_ranges(ctx.len(), threads * 4);
    let pool = workers.unwrap_or_else(|| WorkerPool::shared());
    let runs = pool.par_map(threads, morsels.len(), |i| {
        let mut local = Cost::new();
        let mut out = step_join_kernel(
            doc,
            axis,
            &ctx[morsels[i].clone()],
            cands,
            None,
            kernel,
            morsel_scratch,
            &mut local,
        );
        // Row ids are positions within the morsel slice; shift them back
        // into the full context's row space before merging.
        let base = morsels[i].start as u32;
        for p in &mut out.pairs {
            p.0 += base;
        }
        (out, local)
    });
    merge_runs(ctx.len(), runs, cost)
}

/// Partitioned [`hash_value_join`](crate::valjoin::hash_value_join()):
/// builds the CSR join table on the
/// smaller side once (sequentially — an investment either way), then
/// probes the larger side in parallel morsels. Pair list, orientation,
/// order, and cost charges match `hash_value_join` exactly.
pub fn hash_value_join_partitioned(
    left_doc: &Document,
    left: &[Pre],
    right_doc: &Document,
    right: &[Pre],
    par: Parallelism,
    cost: &mut Cost,
) -> Vec<(Pre, Pre)> {
    hash_value_join_partitioned_with(
        left_doc, left, right_doc, right, None, None, None, par, cost,
    )
}

/// As [`hash_value_join_partitioned`] with optional prebuilt CSR tables
/// per side (the evaluation state's scratch arena) and an optional
/// [`WorkerPool`] handle (`None` runs on the process-shared pool). A
/// prebuilt table must cover exactly the side's current input; the build
/// investment is charged either way, so cost counters stay bit-identical
/// to an uncached run.
#[allow(clippy::too_many_arguments)]
pub fn hash_value_join_partitioned_with(
    left_doc: &Document,
    left: &[Pre],
    right_doc: &Document,
    right: &[Pre],
    left_table: Option<&SymbolTable>,
    right_table: Option<&SymbolTable>,
    workers: Option<&WorkerPool>,
    par: Parallelism,
    cost: &mut Cost,
) -> Vec<(Pre, Pre)> {
    let probe_len = left.len().max(right.len());
    let threads = par.effective_threads(probe_len, MIN_PARTITION_INPUT);
    if threads <= 1 {
        return crate::valjoin::hash_value_join_with(
            left_doc,
            left,
            right_doc,
            right,
            left_table,
            right_table,
            cost,
        );
    }
    // The build/probe choice, build loop, and probe kernel are shared with
    // the sequential operator, so orientation, order, and charges cannot
    // drift apart.
    let build_left = crate::valjoin::hash_builds_left(left, right);
    let (build_doc, build, probe_doc, probe, prebuilt) = if build_left {
        (left_doc, left, right_doc, right, left_table)
    } else {
        (right_doc, right, left_doc, left, right_table)
    };
    let built;
    let table = match prebuilt {
        Some(t) => {
            debug_assert_eq!(t.build_len(), build.len(), "stale cached join table");
            crate::valjoin::charge_cached_build(t, cost);
            t
        }
        None => {
            built = crate::valjoin::build_join_table(build_doc, build, cost);
            &built
        }
    };
    let morsels = chunk_ranges(probe.len(), threads * 4);
    let pool = workers.unwrap_or_else(|| WorkerPool::shared());
    let runs = pool.par_map(threads, morsels.len(), |i| {
        let mut local = Cost::new();
        let mut out = Vec::new();
        crate::valjoin::probe_join_table(
            table,
            probe_doc,
            &probe[morsels[i].clone()],
            build_left,
            &mut local,
            &mut out,
        );
        (out, local)
    });
    let mut pairs = Vec::new();
    for (out, local) in runs {
        pairs.extend_from_slice(&out);
        cost.add(local);
    }
    pairs
}

/// Concatenate per-morsel `JoinOut`s (in morsel order) into one.
fn merge_runs(ctx_len: usize, runs: Vec<(JoinOut<Pre>, Cost)>, cost: &mut Cost) -> JoinOut<Pre> {
    let mut merged = JoinOut::with_limit(ctx_len, None);
    for (out, local) in runs {
        debug_assert!(!out.truncated, "partitioned execution never cuts off");
        merged.pairs.extend_from_slice(&out.pairs);
        cost.add(local);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::staircase::step_join;
    use crate::valjoin::hash_value_join;
    use rox_xmldb::{parse_document, NodeKind};

    fn big_doc(sections: usize, items_per: usize) -> std::sync::Arc<Document> {
        let mut s = String::from("<site>");
        for i in 0..sections {
            s.push_str("<sec>");
            for j in 0..items_per {
                s.push_str(&format!("<item>v{}</item>", (i * items_per + j) % 97));
            }
            s.push_str("</sec>");
        }
        s.push_str("</site>");
        parse_document("big.xml", &s).unwrap()
    }

    fn elements_named(doc: &Document, name: &str) -> Vec<Pre> {
        let sym = doc.interner().get(name).unwrap();
        (0..doc.node_count() as Pre)
            .filter(|&p| doc.kind(p) == NodeKind::Element && doc.name(p) == sym)
            .collect()
    }

    fn text_nodes(doc: &Document) -> Vec<Pre> {
        (0..doc.node_count() as Pre)
            .filter(|&p| doc.kind(p) == NodeKind::Text)
            .collect()
    }

    #[test]
    fn partitioned_step_join_matches_sequential() {
        // 9000 context tuples: crosses the 2*MIN_PARTITION_INPUT
        // engagement threshold with capacity for 4 workers.
        let doc = big_doc(9000, 2);
        let secs = elements_named(&doc, "sec");
        let items = elements_named(&doc, "item");
        let mut c_seq = Cost::new();
        let seq = step_join(&doc, Axis::Descendant, &secs, &items, None, &mut c_seq);
        for par in [
            Parallelism::Threads(2),
            Parallelism::Threads(4),
            Parallelism::Auto,
        ] {
            let mut c_par = Cost::new();
            let got = step_join_partitioned(&doc, Axis::Descendant, &secs, &items, par, &mut c_par);
            assert_eq!(got.pairs, seq.pairs);
            assert_eq!(c_par, c_seq);
        }
    }

    #[test]
    fn partitioned_step_join_small_input_falls_back() {
        let doc = big_doc(3, 2);
        let secs = elements_named(&doc, "sec");
        let items = elements_named(&doc, "item");
        let mut c1 = Cost::new();
        let a = step_join_partitioned(
            &doc,
            Axis::Child,
            &secs,
            &items,
            Parallelism::Threads(8),
            &mut c1,
        );
        let mut c2 = Cost::new();
        let b = step_join(&doc, Axis::Child, &secs, &items, None, &mut c2);
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(c1, c2);
    }

    #[test]
    fn partitioned_hash_join_matches_sequential() {
        let da = big_doc(100, 40);
        let db = big_doc(120, 35);
        let (ta, tb) = (text_nodes(&da), text_nodes(&db));
        let mut c_seq = Cost::new();
        let seq = hash_value_join(&da, &ta, &db, &tb, &mut c_seq);
        for par in [Parallelism::Threads(2), Parallelism::Threads(4)] {
            let mut c_par = Cost::new();
            let got = hash_value_join_partitioned(&da, &ta, &db, &tb, par, &mut c_par);
            assert_eq!(got, seq);
            assert_eq!(c_par, c_seq);
        }
    }

    #[test]
    fn partitioned_hash_join_respects_orientation_both_ways() {
        let da = big_doc(100, 40); // larger
        let db = big_doc(30, 20); // smaller
        let (ta, tb) = (text_nodes(&da), text_nodes(&db));
        // Build side = right (smaller): probe = left.
        let mut c = Cost::new();
        let seq = hash_value_join(&da, &ta, &db, &tb, &mut Cost::new());
        let got = hash_value_join_partitioned(&da, &ta, &db, &tb, Parallelism::Threads(4), &mut c);
        assert_eq!(got, seq);
        // And flipped.
        let seq2 = hash_value_join(&db, &tb, &da, &ta, &mut Cost::new());
        let got2 = hash_value_join_partitioned(&db, &tb, &da, &ta, Parallelism::Threads(4), &mut c);
        assert_eq!(got2, seq2);
    }

    #[test]
    fn sequential_parallelism_is_identity() {
        let doc = big_doc(80, 30);
        let secs = elements_named(&doc, "sec");
        let items = elements_named(&doc, "item");
        let mut c1 = Cost::new();
        let a = step_join_partitioned(
            &doc,
            Axis::Descendant,
            &secs,
            &items,
            Parallelism::Sequential,
            &mut c1,
        );
        let mut c2 = Cost::new();
        let b = step_join(&doc, Axis::Descendant, &secs, &items, None, &mut c2);
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(c1, c2);
    }
}
