//! Value-based equi-joins (the relational joins of the Join Graph).
//!
//! Three physical algorithms, mirroring Table 1:
//!
//! * [`index_value_join`] — nested-loop index lookup: for each (sampled)
//!   outer tuple, probe the inner document's value index. Zero-investment
//!   w.r.t. the outer input, hence the algorithm ROX samples with.
//! * [`hash_value_join`] — classic hash join on interned value symbols,
//!   used for full (materialized) edge execution. Cost `|C|+|S|+|R|`.
//! * [`merge_value_join`] — merge join over inputs pre-sorted by value
//!   symbol (zero-investment when the inner is already ordered).
//!
//! Cross-document joins compare interned [`Symbol`]s, which is sound
//! because all documents of one catalog share an interner.
//!
//! **Zero-hash layout.** Because symbols are dense interner ids and pres
//! are dense node ids, the build side of the hash join is a CSR
//! [`SymbolTable`] (probe = two array reads) and `inner_filter` membership
//! is a [`PreSet`] bitset probe — no SipHash, no per-hit binary search.
//! The slice-based entry points remain as thin wrappers that build the
//! dense structures on the fly; callers holding a reusable workspace (the
//! evaluation state's scratch arena) pass prebuilt ones through the
//! `*_set`/`*_with` variants instead.

use crate::cost::Cost;
use crate::cutoff::JoinOut;
use rox_index::{PreSet, SymbolTable, ValueIndex};
use rox_xmldb::{Document, NodeKind, Pre, Symbol};

fn join_value(doc: &Document, pre: Pre) -> Symbol {
    debug_assert!(
        matches!(doc.kind(pre), NodeKind::Text | NodeKind::Attribute),
        "value join inputs must be text or attribute nodes"
    );
    doc.value(pre)
}

/// Nested-loop index-lookup join against a dense [`PreSet`] filter: probe
/// `inner_index` for each outer node and keep hits in `inner_filter` (the
/// materialized `T(v′)` as a bitset), or all hits when `inner_filter` is
/// `None`. Produced pairs carry the outer node's position in `outer` as
/// their row id. This is the hot entry point the edge-operator kernel and
/// the evaluation state's scratch arena feed.
pub fn index_value_join_set(
    outer_doc: &Document,
    outer: &[Pre],
    inner_index: &ValueIndex,
    inner_kind: NodeKind,
    inner_filter: Option<&PreSet>,
    limit: Option<usize>,
    cost: &mut Cost,
) -> JoinOut<Pre> {
    let mut out = JoinOut::with_limit(outer.len(), limit);
    let limit = limit.unwrap_or(usize::MAX);
    'outer: for (row, &c) in outer.iter().enumerate() {
        let row = row as u32;
        cost.charge_in(1);
        cost.charge_probe(1);
        let v = join_value(outer_doc, c);
        let hits: &[Pre] = match inner_kind {
            NodeKind::Text => inner_index.text_eq(v),
            NodeKind::Attribute => inner_index.attr_eq(v),
            _ => unreachable!("value index covers text and attribute nodes"),
        };
        for &s in hits {
            if let Some(filter) = inner_filter {
                cost.charge_probe(1);
                if !filter.contains(s) {
                    continue;
                }
            }
            if out.emit(row, s, limit, cost) {
                break 'outer;
            }
        }
        out.ctx_done(row);
    }
    out
}

/// As [`index_value_join_set`] with the filter given as a sorted slice:
/// builds the [`PreSet`] on the fly (an allocation the evaluation state's
/// scratch arena avoids by caching the set per vertex).
pub fn index_value_join(
    outer_doc: &Document,
    outer: &[Pre],
    inner_index: &ValueIndex,
    inner_kind: NodeKind,
    inner_filter: Option<&[Pre]>,
    limit: Option<usize>,
    cost: &mut Cost,
) -> JoinOut<Pre> {
    let set = inner_filter.map(filter_set);
    index_value_join_set(
        outer_doc,
        outer,
        inner_index,
        inner_kind,
        set.as_ref(),
        limit,
        cost,
    )
}

/// Build the membership bitset for a sorted filter slice, sized by its
/// largest member (probes beyond it answer `false`).
pub(crate) fn filter_set(filter: &[Pre]) -> PreSet {
    debug_assert!(filter.windows(2).all(|w| w[0] <= w[1]));
    let universe = filter.last().map(|&p| p as usize + 1).unwrap_or(0);
    PreSet::from_nodes(universe, filter)
}

/// Build-side choice shared by the sequential and partitioned hash joins:
/// build on the smaller input, probe with the larger. Keeping this in one
/// place locks the two variants' orientation together.
pub(crate) fn hash_builds_left(left: &[Pre], right: &[Pre]) -> bool {
    left.len() <= right.len()
}

/// Build the CSR join table over the build side (an investment charged per
/// input tuple, exactly like the hash build it replaces).
pub(crate) fn build_join_table(
    build_doc: &Document,
    build: &[Pre],
    cost: &mut Cost,
) -> SymbolTable {
    cost.charge_in(build.len());
    let symbols: Vec<Symbol> = build.iter().map(|&p| join_value(build_doc, p)).collect();
    SymbolTable::from_pairs(&symbols, build)
}

/// Charge the build-side investment for a *cached* join table: the cost
/// model bills the build per execution whether or not the scratch arena
/// already holds the table, keeping counters bit-identical to an uncached
/// run.
pub(crate) fn charge_cached_build(table: &SymbolTable, cost: &mut Cost) {
    cost.charge_in(table.build_len());
}

/// Probe a slice of the probe side against the CSR table, appending
/// matches to `out` in probe order, oriented `(left, right)` per
/// `build_left`. The probe kernel of both [`hash_value_join`] and its
/// partitioned variant — two array reads per probe, no hashing.
pub(crate) fn probe_join_table(
    table: &SymbolTable,
    probe_doc: &Document,
    probe: &[Pre],
    build_left: bool,
    cost: &mut Cost,
    out: &mut Vec<(Pre, Pre)>,
) {
    for &p in probe {
        cost.charge_in(1);
        cost.charge_probe(1);
        for &m in table.get(join_value(probe_doc, p)) {
            cost.charge_out(1);
            if build_left {
                out.push((m, p));
            } else {
                out.push((p, m));
            }
        }
    }
}

/// Hash join at the node level: all `(left, right)` pre pairs with equal
/// values. Builds on the smaller side. (The "hash" is the interner's
/// already-paid hash-consing: at join time the build side is a CSR table
/// and probes are array reads.)
pub fn hash_value_join(
    left_doc: &Document,
    left: &[Pre],
    right_doc: &Document,
    right: &[Pre],
    cost: &mut Cost,
) -> Vec<(Pre, Pre)> {
    hash_value_join_with(left_doc, left, right_doc, right, None, None, cost)
}

/// As [`hash_value_join`] with optional prebuilt CSR tables per side (from
/// the evaluation state's scratch arena). A prebuilt table must have been
/// built over exactly the side's current input; the build investment is
/// charged either way.
pub fn hash_value_join_with(
    left_doc: &Document,
    left: &[Pre],
    right_doc: &Document,
    right: &[Pre],
    left_table: Option<&SymbolTable>,
    right_table: Option<&SymbolTable>,
    cost: &mut Cost,
) -> Vec<(Pre, Pre)> {
    let build_left = hash_builds_left(left, right);
    let (build_doc, build, probe_doc, probe, prebuilt) = if build_left {
        (left_doc, left, right_doc, right, left_table)
    } else {
        (right_doc, right, left_doc, left, right_table)
    };
    let mut out = Vec::new();
    match prebuilt {
        Some(table) => {
            debug_assert_eq!(table.build_len(), build.len(), "stale cached join table");
            charge_cached_build(table, cost);
            probe_join_table(table, probe_doc, probe, build_left, cost, &mut out);
        }
        None => {
            let table = build_join_table(build_doc, build, cost);
            probe_join_table(&table, probe_doc, probe, build_left, cost, &mut out);
        }
    }
    out
}

/// Merge join over inputs sorted by value symbol. `left`/`right` are
/// `(symbol, pre)` pairs sorted on symbol.
pub fn merge_value_join(
    left: &[(Symbol, Pre)],
    right: &[(Symbol, Pre)],
    cost: &mut Cost,
) -> Vec<(Pre, Pre)> {
    debug_assert!(left.windows(2).all(|w| w[0].0 <= w[1].0));
    debug_assert!(right.windows(2).all(|w| w[0].0 <= w[1].0));
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        cost.charge_in(1);
        match left[i].0.cmp(&right[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // Emit the cross product of the equal-symbol groups.
                let sym = left[i].0;
                let i_end = left[i..].iter().take_while(|(s, _)| *s == sym).count() + i;
                let j_end = right[j..].iter().take_while(|(s, _)| *s == sym).count() + j;
                for &(_, lp) in &left[i..i_end] {
                    for &(_, rp) in &right[j..j_end] {
                        cost.charge_out(1);
                        out.push((lp, rp));
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    out
}

/// Sort a node list into `(symbol, pre)` pairs ordered by symbol — the
/// preparation step for [`merge_value_join`] (an investment, so only used
/// on fully materialized inputs).
pub fn sorted_by_value(doc: &Document, nodes: &[Pre]) -> Vec<(Symbol, Pre)> {
    let mut out: Vec<(Symbol, Pre)> = nodes.iter().map(|&p| (join_value(doc, p), p)).collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rox_xmldb::Catalog;
    use std::sync::Arc;

    fn setup() -> (
        Arc<Catalog>,
        Arc<Document>,
        Arc<Document>,
        ValueIndex,
        ValueIndex,
    ) {
        let cat = Arc::new(Catalog::new());
        let a = cat
            .load_str("a.xml", "<r><x>ann</x><x>bob</x><x>ann</x></r>")
            .unwrap();
        let b = cat
            .load_str("b.xml", "<r><y>ann</y><y>cat</y><y>bob</y></r>")
            .unwrap();
        let da = cat.doc(a);
        let db = cat.doc(b);
        let ia = ValueIndex::build(&da);
        let ib = ValueIndex::build(&db);
        (cat, da, db, ia, ib)
    }

    fn text_nodes(doc: &Document) -> Vec<Pre> {
        (0..doc.node_count() as Pre)
            .filter(|&p| doc.kind(p) == NodeKind::Text)
            .collect()
    }

    #[test]
    fn index_join_finds_cross_doc_matches() {
        let (_cat, da, _db, _ia, ib) = setup();
        let left = text_nodes(&da);
        let mut cost = Cost::new();
        let out = index_value_join(&da, &left, &ib, NodeKind::Text, None, None, &mut cost);
        // ann (x2 left) matches 1 right; bob matches 1 => 3 pairs.
        assert_eq!(out.pairs.len(), 3);
    }

    #[test]
    fn index_join_respects_filter() {
        let (_cat, da, db, _ia, ib) = setup();
        let left = text_nodes(&da);
        // Only allow the right "bob" text node.
        let right = text_nodes(&db);
        let bob_only: Vec<Pre> = right
            .iter()
            .copied()
            .filter(|&p| db.value_str(p) == "bob")
            .collect();
        let mut cost = Cost::new();
        let out = index_value_join(
            &da,
            &left,
            &ib,
            NodeKind::Text,
            Some(&bob_only),
            None,
            &mut cost,
        );
        assert_eq!(out.pairs.len(), 1);
        assert_eq!(da.value_str(left[out.pairs[0].0 as usize]), "bob");
    }

    #[test]
    fn hash_join_matches_index_join() {
        let (_cat, da, db, _ia, ib) = setup();
        let left = text_nodes(&da);
        let right = text_nodes(&db);
        let mut c1 = Cost::new();
        let hash = hash_value_join(&da, &left, &db, &right, &mut c1);
        let mut c2 = Cost::new();
        let idx = index_value_join(&da, &left, &ib, NodeKind::Text, None, None, &mut c2);
        let mut hash_sorted = hash.clone();
        hash_sorted.sort_unstable();
        let mut idx_pairs: Vec<(Pre, Pre)> = idx
            .pairs
            .iter()
            .map(|&(r, s)| (left[r as usize], s))
            .collect();
        idx_pairs.sort_unstable();
        assert_eq!(hash_sorted, idx_pairs);
    }

    #[test]
    fn merge_join_matches_hash_join() {
        let (_cat, da, db, _, _) = setup();
        let left = text_nodes(&da);
        let right = text_nodes(&db);
        let mut c = Cost::new();
        let mut hash = hash_value_join(&da, &left, &db, &right, &mut c);
        hash.sort_unstable();
        let ls = sorted_by_value(&da, &left);
        let rs = sorted_by_value(&db, &right);
        let mut merge = merge_value_join(&ls, &rs, &mut c);
        merge.sort_unstable();
        assert_eq!(hash, merge);
    }

    #[test]
    fn cutoff_on_index_join() {
        let (_cat, da, _db, _ia, ib) = setup();
        let left = text_nodes(&da);
        let mut cost = Cost::new();
        let out = index_value_join(&da, &left, &ib, NodeKind::Text, None, Some(1), &mut cost);
        assert!(out.truncated);
        assert_eq!(out.pairs.len(), 1);
        assert!(out.estimate() >= 1.0);
    }

    #[test]
    fn attribute_value_join() {
        let cat = Arc::new(Catalog::new());
        let a = cat
            .load_str("a.xml", r#"<r><e k="1"/><e k="2"/></r>"#)
            .unwrap();
        let b = cat
            .load_str("b.xml", r#"<r><f id="2"/><f id="3"/></r>"#)
            .unwrap();
        let da = cat.doc(a);
        let db = cat.doc(b);
        let ib = ValueIndex::build(&db);
        let attrs: Vec<Pre> = (0..da.node_count() as Pre)
            .filter(|&p| da.kind(p) == NodeKind::Attribute)
            .collect();
        let mut cost = Cost::new();
        let out = index_value_join(&da, &attrs, &ib, NodeKind::Attribute, None, None, &mut cost);
        assert_eq!(out.pairs.len(), 1);
        assert_eq!(da.value_str(attrs[out.pairs[0].0 as usize]), "2");
    }
}
