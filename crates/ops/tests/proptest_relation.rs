//! Algebraic property tests for [`Relation`]: compose/expand laws,
//! composition with unjoined sides, bitset-derived distinct nodes,
//! distinct/sort idempotence, and tail invariants.

use proptest::prelude::*;
use rox_ops::{distinct_sorted, Composed, Cost, KeptRows, Relation, Side, Tail};
use rox_xmldb::catalog::DocId;
use rox_xmldb::Pre;

const D: DocId = DocId(0);

fn single_rel(var: u32) -> impl Strategy<Value = Relation> {
    prop::collection::vec(0u32..12, 0..20).prop_map(move |pres| Relation::single(var, D, pres))
}

fn pairs_strategy() -> impl Strategy<Value = Vec<(Pre, Pre)>> {
    prop::collection::vec((0u32..12, 0u32..12), 0..25)
}

/// A column whose `[min, max]` span sits within ±70 node ids of the rank
/// bitset's crossover (64 node ids per row), so it lands on either side of
/// it. The span starts at node 0 or ends at `u32::MAX`; its extremes sit
/// at rotated row positions, and some rows repeat the row before. Half the
/// columns are sorted and deduplicated instead, like a base list.
fn crossover_column() -> impl Strategy<Value = Vec<Pre>> {
    (
        prop::collection::vec((any::<u32>(), any::<bool>()), 0..14),
        -70i64..=70,
        any::<bool>(),
        0usize..16,
        any::<bool>(),
    )
        .prop_map(|(raw, delta, at_top, rot, increasing)| {
            let rows = raw.len() as i64 + 2;
            let span = (64 * rows + delta) as u32;
            let min = if at_top { u32::MAX - (span - 1) } else { 0 };
            let mut col = vec![min, min + (span - 1)];
            for (r, repeat) in raw {
                let last = col[col.len() - 1];
                col.push(if repeat { last } else { min + r % span });
            }
            if increasing {
                col.sort_unstable();
                col.dedup();
            } else {
                let n = col.len();
                col.rotate_left(rot % n);
            }
            col
        })
}

/// Reference composition: the per-pair row nested loop, plus which rows of
/// each side occur in the output.
fn nested_loop(left: &Relation, right: &Relation, pairs: &[(Pre, Pre)]) -> (Relation, KeptRows) {
    let mut out = Relation::empty(vec![1, 2], vec![D, D]);
    let mut left_seen = vec![false; left.len()];
    let mut right_seen = vec![false; right.len()];
    for &(a, b) in pairs {
        for (li, &lv) in left.col(1).iter().enumerate() {
            if lv != a {
                continue;
            }
            for (ri, &rv) in right.col(2).iter().enumerate() {
                if rv != b {
                    continue;
                }
                left_seen[li] = true;
                right_seen[ri] = true;
                out.push_row(&[lv, rv]);
            }
        }
    }
    let kept = KeptRows {
        left: left_seen.iter().all(|&s| s),
        right: right_seen.iter().all(|&s| s),
    };
    (out, kept)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn compose_cardinality_formula(left in single_rel(1), right in single_rel(2), pairs in pairs_strategy()) {
        let joined = Relation::compose(&left, 1, &right, 2, &pairs);
        // |join| = Σ over pairs of (left multiplicity × right multiplicity).
        let mult = |r: &Relation, var: u32, node: Pre| {
            r.col(var).iter().filter(|&&x| x == node).count()
        };
        let expected: usize = pairs
            .iter()
            .map(|&(a, b)| mult(&left, 1, a) * mult(&right, 2, b))
            .sum();
        prop_assert_eq!(joined.len(), expected);
    }

    #[test]
    fn compose_matches_naive_row_nested_loop(left in single_rel(1), right in single_rel(2), pairs in pairs_strategy()) {
        // Reference: the old per-pair row nested loop, reimplemented here.
        let mut expected = Relation::empty(vec![1, 2], vec![D, D]);
        for &(a, b) in &pairs {
            for (li, &lv) in left.col(1).iter().enumerate() {
                if lv != a { continue; }
                for (ri, &rv) in right.col(2).iter().enumerate() {
                    if rv != b { continue; }
                    let _ = (li, ri);
                    expected.push_row(&[lv, rv]);
                }
            }
        }
        let got = Relation::compose(&left, 1, &right, 2, &pairs);
        prop_assert_eq!(&got, &expected);
    }

    #[test]
    fn sparse_compose_matches_dense_semantics(
        left_raw in prop::collection::vec(0u32..50_000, 0..20),
        right_raw in prop::collection::vec(0u32..50_000, 0..20),
        picks in prop::collection::vec((0usize..24, 0usize..24), 0..25),
    ) {
        // Node ids spread over far more than 64 per row force RowIndex's
        // sorted (binary-search) layout instead of the rank bitset; pairs
        // drawn from the actual columns so matches exist. Reference: the
        // row nested loop.
        let left = Relation::single(1, D, left_raw);
        let right = Relation::single(2, D, right_raw);
        let pairs: Vec<(Pre, Pre)> = picks
            .into_iter()
            .filter(|&(i, j)| i < left.len() && j < right.len())
            .map(|(i, j)| (left.col(1)[i], right.col(2)[j]))
            .collect();
        let mut expected = Relation::empty(vec![1, 2], vec![D, D]);
        for &(a, b) in &pairs {
            for &lv in left.col(1) {
                if lv != a { continue; }
                for &rv in right.col(2) {
                    if rv != b { continue; }
                    expected.push_row(&[lv, rv]);
                }
            }
        }
        let got = Relation::compose(&left, 1, &right, 2, &pairs);
        prop_assert_eq!(&got, &expected);
    }

    #[test]
    fn compose_kept_flags_match_row_nested_loop(left in single_rel(1), right in single_rel(2), pairs in pairs_strategy()) {
        let (got, kept) = Relation::compose_kept(&left, 1, &right, 2, &pairs);
        let (expected, expected_kept) = nested_loop(&left, &right, &pairs);
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(kept, expected_kept);
        prop_assert_eq!(&Relation::compose(&left, 1, &right, 2, &pairs), &got);
    }

    #[test]
    fn compose_at_bitset_crossover_matches_row_nested_loop(
        left_col in crossover_column(),
        right_col in crossover_column(),
        picks in prop::collection::vec((0usize..16, 0u32..3, 0usize..16, 0u32..3), 0..25),
    ) {
        // Pairs name column nodes (offset 0) or their upper neighbours,
        // which may be absent, past the span, or wrap to node 0.
        let left = Relation::single(1, D, left_col);
        let right = Relation::single(2, D, right_col);
        let pairs: Vec<(Pre, Pre)> = picks
            .into_iter()
            .map(|(i, da, j, db)| {
                let a = left.col(1)[i % left.len()].wrapping_add(da);
                let b = right.col(2)[j % right.len()].wrapping_add(db);
                (a, b)
            })
            .collect();
        let (got, kept) = Relation::compose_kept(&left, 1, &right, 2, &pairs);
        let (expected, expected_kept) = nested_loop(&left, &right, &pairs);
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(kept, expected_kept);
    }

    #[test]
    fn compose_is_symmetric_up_to_schema(left in single_rel(1), right in single_rel(2), pairs in pairs_strategy()) {
        let ab = Relation::compose(&left, 1, &right, 2, &pairs);
        let flipped: Vec<(Pre, Pre)> = pairs.iter().map(|&(a, b)| (b, a)).collect();
        let ba = Relation::compose(&right, 2, &left, 1, &flipped);
        prop_assert_eq!(ab.len(), ba.len());
        // Same multiset of (var1, var2) bindings.
        let mut x: Vec<(Pre, Pre)> =
            ab.col(1).iter().zip(ab.col(2)).map(|(&a, &b)| (a, b)).collect();
        let mut y: Vec<(Pre, Pre)> =
            ba.col(1).iter().zip(ba.col(2)).map(|(&a, &b)| (a, b)).collect();
        x.sort_unstable();
        y.sort_unstable();
        prop_assert_eq!(x, y);
    }

    #[test]
    fn distinct_is_idempotent(rel in single_rel(1)) {
        let mut once = rel.clone();
        once.distinct();
        let mut twice = once.clone();
        twice.distinct();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn distinct_matches_hashset_reference(left in single_rel(1), right in single_rel(2), pairs in pairs_strategy()) {
        // Two-column relation so dedup works on real row tuples.
        let mut rel = Relation::compose(&left, 1, &right, 2, &pairs);
        // Reference: first-occurrence filter via a HashSet of rows (the
        // pre-vectorization implementation).
        let mut seen = std::collections::HashSet::new();
        let keep: Vec<bool> = (0..rel.len())
            .map(|i| seen.insert((rel.col(1)[i], rel.col(2)[i])))
            .collect();
        let mut expected = rel.clone();
        expected.retain_rows(&keep);
        rel.distinct();
        prop_assert_eq!(rel, expected);
    }

    #[test]
    fn sort_is_idempotent_and_stable_cardinality(rel in single_rel(1)) {
        let mut s1 = rel.clone();
        s1.sort_by(&[1]);
        prop_assert_eq!(s1.len(), rel.len());
        let mut s2 = s1.clone();
        s2.sort_by(&[1]);
        prop_assert_eq!(s1, s2);
    }

    #[test]
    fn tail_output_is_sorted_and_distinct(rel in single_rel(1)) {
        let tail = Tail { dedup_vars: vec![1], sort_vars: vec![1], output_vars: vec![1] };
        let out = tail.apply(&rel, &mut Cost::new());
        let col = out.col(1);
        prop_assert!(col.windows(2).all(|w| w[0] < w[1]), "strictly increasing after dedup");
        // Same distinct node set as the input.
        prop_assert_eq!(col.to_vec(), rel.distinct_nodes(1));
    }

    #[test]
    fn expand_preserves_left_bindings(rel in single_rel(1), raw in prop::collection::vec((0u32..20, 0u32..12), 0..20)) {
        let pairs: Vec<(u32, Pre)> = raw
            .into_iter()
            .filter(|(row, _)| (*row as usize) < rel.len())
            .collect();
        let ex = rel.expand(&pairs, 2, DocId(1));
        prop_assert_eq!(ex.len(), pairs.len());
        prop_assert_eq!(ex.doc_of(2), DocId(1));
        for (i, &(row, node)) in pairs.iter().enumerate() {
            prop_assert_eq!(ex.col(1)[i], rel.col(1)[row as usize]);
            prop_assert_eq!(ex.col(2)[i], node);
        }
    }
}

/// A vertex table `T(v)`: distinct nodes in document order, over a span
/// that starts near node 0 or ends near `u32::MAX`.
fn table_strategy() -> impl Strategy<Value = Vec<Pre>> {
    (prop::collection::vec(0u32..300, 0..30), any::<bool>()).prop_map(|(mut nodes, at_top)| {
        if at_top {
            for p in &mut nodes {
                *p = u32::MAX - *p;
            }
        }
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    })
}

/// A two-attribute component (vars 2 and 3) whose join column, var 2,
/// repeats nodes: some rows copy the node of the row before.
fn component_strategy() -> impl Strategy<Value = Relation> {
    prop::collection::vec((0u32..40, 0u32..1000, any::<bool>()), 0..30).prop_map(|rows| {
        let mut rel = Relation::empty(vec![2, 3], vec![D, DocId(1)]);
        let mut last = None;
        for (node, other, repeat) in rows {
            let node = match (repeat, last) {
                (true, Some(prev)) => prev,
                _ => node,
            };
            rel.push_row(&[node, other]);
            last = Some(node);
        }
        rel
    })
}

/// Pairs `(table node, component node)` from `table × col`, plus some
/// component nodes absent from `col`.
fn pairs_into(table: &[Pre], col: &[Pre], picks: &[(usize, usize, bool)]) -> Vec<(Pre, Pre)> {
    if table.is_empty() {
        return Vec::new();
    }
    picks
        .iter()
        .map(|&(i, j, absent)| {
            let b = if absent || col.is_empty() {
                40 + j as Pre
            } else {
                col[j % col.len()]
            };
            (table[i % table.len()], b)
        })
        .collect()
}

fn sort_dedup(col: &[Pre]) -> Vec<Pre> {
    let mut nodes = col.to_vec();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

/// The table [`Relation::compose_sides`] must report for the unjoined
/// attribute `var` of `out`: its distinct nodes if that side dropped
/// nodes, nothing if it kept them all.
fn expected_table(out: &Relation, var: u32, kept: bool) -> Option<Vec<Pre>> {
    (!kept).then(|| sort_dedup(out.col(var)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn compose_sides_left_unjoined_matches_compose_kept(
        table in table_strategy(),
        comp in component_strategy(),
        picks in prop::collection::vec((0usize..64, 0usize..64, any::<bool>()), 0..40),
    ) {
        let pairs = pairs_into(&table, comp.col(2), &picks);
        let single = Relation::single(1, D, table.clone());
        let (expected, kept) = Relation::compose_kept(&single, 1, &comp, 2, &pairs);
        let got = Relation::compose_sides(Side::Unjoined { doc: D, table: &table }, 1, Side::Joined(&comp), 2, &pairs);
        let tables = (expected_table(&expected, 1, kept.left), None);
        prop_assert_eq!(got, Composed { rel: expected, kept, tables });
    }

    #[test]
    fn compose_sides_right_unjoined_matches_compose_kept(
        table in table_strategy(),
        comp in component_strategy(),
        picks in prop::collection::vec((0usize..64, 0usize..64, any::<bool>()), 0..40),
    ) {
        let pairs: Vec<(Pre, Pre)> =
            pairs_into(&table, comp.col(2), &picks).into_iter().map(|(a, b)| (b, a)).collect();
        let single = Relation::single(1, D, table.clone());
        let (expected, kept) = Relation::compose_kept(&comp, 2, &single, 1, &pairs);
        let got = Relation::compose_sides(Side::Joined(&comp), 2, Side::Unjoined { doc: D, table: &table }, 1, &pairs);
        let tables = (None, expected_table(&expected, 1, kept.right));
        prop_assert_eq!(got, Composed { rel: expected, kept, tables });
    }

    #[test]
    fn compose_sides_both_unjoined_matches_compose_kept(
        left in table_strategy(),
        right in table_strategy(),
        picks in prop::collection::vec((0usize..64, 0usize..64), 0..40),
    ) {
        let pairs: Vec<(Pre, Pre)> = if left.is_empty() || right.is_empty() {
            Vec::new()
        } else {
            picks.iter().map(|&(i, j)| (left[i % left.len()], right[j % right.len()])).collect()
        };
        let (expected, kept) = Relation::compose_kept(
            &Relation::single(1, D, left.clone()),
            1,
            &Relation::single(2, DocId(1), right.clone()),
            2,
            &pairs,
        );
        let got = Relation::compose_sides(
            Side::Unjoined { doc: D, table: &left },
            1,
            Side::Unjoined { doc: DocId(1), table: &right },
            2,
            &pairs,
        );
        let tables = (expected_table(&expected, 1, kept.left), expected_table(&expected, 2, kept.right));
        prop_assert_eq!(got, Composed { rel: expected, kept, tables });
    }

    #[test]
    fn distinct_sorted_matches_sort_dedup(
        raw in prop::collection::vec(0u32..200, 0..40),
        anchor in 0u32..3,
        shift in 0u32..128,
        boundary in any::<bool>(),
    ) {
        // Offsets from the column's minimum, on both sides of the 64-id
        // word boundaries when `boundary` is set; the column is anchored
        // at node 0, at `u32::MAX`, or at an arbitrary shift off a word.
        let mut offsets = raw;
        if boundary {
            offsets.extend([0, 63, 64, 127, 128]);
        }
        let col: Vec<Pre> = offsets
            .iter()
            .map(|&x| match anchor {
                0 => x,
                1 => u32::MAX - x,
                _ => 64 * 1000 + shift + x,
            })
            .collect();
        prop_assert_eq!(distinct_sorted(&col), sort_dedup(&col));
    }
}
