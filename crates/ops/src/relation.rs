//! Columnar relations over XML nodes.
//!
//! The semantics of a Join Graph is "a fully joined relation containing
//! attributes of base relations" (§2.1). [`Relation`] is that intermediate:
//! one column per Join Graph vertex that has been joined in so far. The
//! ROX evaluator materializes these (the paper's fully-materialized
//! execution model) and derives the per-vertex tables `T(v)` as distinct
//! projections.
//!
//! # Layout
//!
//! Strict struct-of-arrays: a column is a plain `Vec<`[`Pre`]`>` — 4 bytes
//! per binding — and the column's document is stored **once** per
//! attribute (`docs[i]`), not per row; a vertex's bindings all live in one
//! document, so the old per-cell `NodeId` (doc, pre) pairs carried the
//! same `DocId` millions of times. Every bulk operation (join composition,
//! row filtering, sorting, dedup, cartesian products) works column-wise
//! with index **gathers** — no per-row `Vec` is ever built, and the hot
//! [`Relation::compose`] resolves node→row matches through a rank-bitset
//! index instead of a `HashMap`. [`Relation::compose_sides`] lets a vertex
//! that has not joined a component yet take part as its bare table
//! `T(v)`, which is never indexed, and [`distinct_sorted`] derives `T(v)`
//! from a column without sorting it.

use rand::Rng;
use rox_xmldb::catalog::DocId;
use rox_xmldb::{NodeId, Pre};

/// Identifier of a Join Graph vertex / relation attribute.
pub type VarId = u32;

/// A columnar relation: `cols[i]` holds the binding of `schema[i]` for
/// every row, all in document `docs[i]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Relation {
    schema: Vec<VarId>,
    docs: Vec<DocId>,
    cols: Vec<Vec<Pre>>,
}

impl Relation {
    /// An empty relation with the given schema; `docs` must be parallel to
    /// `schema`.
    pub fn empty(schema: Vec<VarId>, docs: Vec<DocId>) -> Self {
        debug_assert_eq!(schema.len(), docs.len());
        let cols = schema.iter().map(|_| Vec::new()).collect();
        Relation { schema, docs, cols }
    }

    /// A single-attribute relation from a node list in one document.
    pub fn single(var: VarId, doc: DocId, nodes: Vec<Pre>) -> Self {
        Relation {
            schema: vec![var],
            docs: vec![doc],
            cols: vec![nodes],
        }
    }

    /// The attribute list.
    pub fn schema(&self) -> &[VarId] {
        &self.schema
    }

    /// Per-attribute documents, parallel to [`Relation::schema`].
    pub fn docs(&self) -> &[DocId] {
        &self.docs
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.cols.first().map_or(0, Vec::len)
    }

    /// True when the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Position of `var` in the schema.
    pub fn col_idx(&self, var: VarId) -> Option<usize> {
        self.schema.iter().position(|&v| v == var)
    }

    /// The column bound to `var`.
    ///
    /// # Panics
    /// Panics when `var` is not in the schema.
    pub fn col(&self, var: VarId) -> &[Pre] {
        let i = self.col_idx(var).expect("variable not in relation schema");
        &self.cols[i]
    }

    /// The document `var`'s bindings live in.
    ///
    /// # Panics
    /// Panics when `var` is not in the schema.
    pub fn doc_of(&self, var: VarId) -> DocId {
        let i = self.col_idx(var).expect("variable not in relation schema");
        self.docs[i]
    }

    /// The global node id bound to `var` in row `row`.
    pub fn node(&self, var: VarId, row: usize) -> NodeId {
        let i = self.col_idx(var).expect("variable not in relation schema");
        NodeId::new(self.docs[i], self.cols[i][row])
    }

    /// Distinct nodes of `var`'s column, sorted in document order — the
    /// paper's `T(v)` as a projection of the component relation. Sort
    /// based: the reference the evaluator's bitset-based
    /// [`distinct_sorted`] is tested against.
    pub fn distinct_nodes(&self, var: VarId) -> Vec<Pre> {
        let mut nodes = self.col(var).to_vec();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Append one row; `row` must be parallel to the schema.
    pub fn push_row(&mut self, row: &[Pre]) {
        debug_assert_eq!(row.len(), self.schema.len());
        for (col, &v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
    }

    /// Keep only the rows whose index satisfies `keep`.
    pub fn retain_rows(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.len());
        for col in &mut self.cols {
            let mut i = 0;
            col.retain(|_| {
                let k = keep[i];
                i += 1;
                k
            });
        }
    }

    /// Project onto `vars` (clones the columns, preserves row order and
    /// multiplicity).
    pub fn project(&self, vars: &[VarId]) -> Relation {
        let idx: Vec<usize> = vars
            .iter()
            .map(|&v| self.col_idx(v).expect("projection variable not in schema"))
            .collect();
        Relation {
            schema: vars.to_vec(),
            docs: idx.iter().map(|&i| self.docs[i]).collect(),
            cols: idx.iter().map(|&i| self.cols[i].clone()).collect(),
        }
    }

    /// Sort rows lexicographically by the given variables (document order
    /// per column) — the `τ` numbering/sort of the plan tail.
    pub fn sort_by(&mut self, vars: &[VarId]) {
        let key_cols: Vec<usize> = vars
            .iter()
            .map(|&v| self.col_idx(v).expect("sort variable not in schema"))
            .collect();
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_by(|&a, &b| {
            for &k in &key_cols {
                let ord = self.cols[k][a as usize].cmp(&self.cols[k][b as usize]);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        self.reorder(&order);
    }

    /// Gather every column through a row-index permutation (or subset).
    fn reorder(&mut self, order: &[u32]) {
        for col in &mut self.cols {
            let new_col: Vec<Pre> = order.iter().map(|&i| col[i as usize]).collect();
            *col = new_col;
        }
    }

    /// Compare two rows over the full schema.
    fn rows_cmp(&self, a: u32, b: u32) -> std::cmp::Ordering {
        for col in &self.cols {
            let ord = col[a as usize].cmp(&col[b as usize]);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    }

    /// Remove duplicate rows with respect to the full schema (the plan
    /// tail's `δ`). Keeps the first occurrence; row order is otherwise
    /// preserved. Sort-based: no per-row hashing or row materialization.
    pub fn distinct(&mut self) {
        let n = self.len();
        if n <= 1 {
            return;
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(|&a, &b| self.rows_cmp(a, b).then(a.cmp(&b)));
        let mut keep = vec![false; n];
        let mut i = 0;
        while i < n {
            // Rows of one equal-run are index-sorted, so the run's first
            // entry is the row's first occurrence.
            keep[order[i] as usize] = true;
            let mut j = i + 1;
            while j < n && self.rows_cmp(order[i], order[j]) == std::cmp::Ordering::Equal {
                j += 1;
            }
            i = j;
        }
        self.retain_rows(&keep);
    }

    /// Sort rows lexicographically over the full schema and keep one row
    /// of each equal run: [`Relation::distinct`] followed by
    /// [`Relation::sort_by`] over the schema, in one sort.
    pub fn sort_distinct(&mut self) {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| self.rows_cmp(a, b));
        order.dedup_by(|&mut b, &mut a| self.rows_cmp(a, b) == std::cmp::Ordering::Equal);
        self.reorder(&order);
    }

    /// Uniform without-replacement sample of `amount` rows (row order
    /// preserved).
    pub fn sample_rows<R: Rng + ?Sized>(&self, rng: &mut R, amount: usize) -> Relation {
        if amount >= self.len() {
            return self.clone();
        }
        let mut idx: Vec<usize> = rand::seq::index::sample(rng, self.len(), amount).into_vec();
        idx.sort_unstable();
        let cols = self
            .cols
            .iter()
            .map(|col| idx.iter().map(|&i| col[i]).collect())
            .collect();
        Relation {
            schema: self.schema.clone(),
            docs: self.docs.clone(),
            cols,
        }
    }

    /// Natural composition through a node-level pair list: every
    /// `(a, b)` in `pairs` matches left rows with `col(var_a) == a` against
    /// right rows with `col(var_b) == b`; output rows are the concatenation
    /// of the left and right bindings.
    ///
    /// This is how the evaluator turns a node-level structural or value
    /// join into the component-level join while preserving multiplicities.
    /// Row matching goes through a rank-bitset index per side (node → rows,
    /// a shift, a mask and a `count_ones` per lookup), and output rows are
    /// produced as one **gather per column** — never row by row.
    pub fn compose(
        left: &Relation,
        var_a: VarId,
        right: &Relation,
        var_b: VarId,
        pairs: &[(Pre, Pre)],
    ) -> Relation {
        Relation::compose_kept(left, var_a, right, var_b, pairs).0
    }

    /// [`Relation::compose`], also reporting which inputs kept every row
    /// in the output. A side that kept every row has the same distinct
    /// nodes in each of its columns before and after the join, so the
    /// evaluator can skip re-deriving their `T(v)`.
    pub fn compose_kept(
        left: &Relation,
        var_a: VarId,
        right: &Relation,
        var_b: VarId,
        pairs: &[(Pre, Pre)],
    ) -> (Relation, KeptRows) {
        let left_index = RowIndex::build(left.col(var_a));
        let right_index = RowIndex::build(right.col(var_b));
        let mut left_hits = Hits::new(left.len());
        let mut right_hits = Hits::new(right.len());
        // Matched row-index pairs, flat: (left row, right row) per output
        // row, in pair order × left-row order × right-row order — exactly
        // the row order the old per-pair nested loop produced. Sized for
        // one row per pair, the common case.
        let mut lrows = Vec::with_capacity(pairs.len());
        let mut rrows = Vec::with_capacity(pairs.len());
        for &(a, b) in pairs {
            let Some((lg, ls)) = left_index.group(a) else {
                continue;
            };
            let Some((rg, rs)) = right_index.group(b) else {
                continue;
            };
            let (ls, rs) = (ls.rows(), rs.rows());
            left_hits.mark(lg, ls.len());
            right_hits.mark(rg, rs.len());
            for &li in ls {
                lrows.extend(std::iter::repeat_n(li, rs.len()));
                rrows.extend_from_slice(rs);
            }
        }
        let kept = KeptRows {
            left: left_hits.kept_all(),
            right: right_hits.kept_all(),
        };
        let mut out = left.gathered(&lrows);
        out.append(right.gathered(&rrows));
        (out, kept)
    }

    /// [`Relation::compose_kept`] where either side, or both, may be a
    /// vertex no executed edge has touched yet ([`Side::Unjoined`]). Rows,
    /// row order and kept flags are exactly those of `compose_kept` over
    /// the one-column relation of the unjoined side's table.
    ///
    /// On an unjoined side the output column is the pair's node itself:
    /// that side is never indexed or looked up. Every pair node on it must
    /// lie in its table — true of kernel pairs, which are computed over
    /// `T(v1) × T(v2)`. One bitset over the table's span records the
    /// matched nodes; it gives the side's kept flag and, when the side
    /// dropped nodes, its new table already sorted ([`Composed::tables`]).
    pub fn compose_sides(
        left: Side<'_>,
        var_a: VarId,
        right: Side<'_>,
        var_b: VarId,
        pairs: &[(Pre, Pre)],
    ) -> Composed {
        debug_assert!(
            pairs.iter().all(|&(a, b)| left.holds(a) && right.holds(b)),
            "a pair node is not in its unjoined side's table"
        );
        // Per side: its kept flag and, for an unjoined side that dropped
        // nodes, its new table.
        let (rel, left_out, right_out) = match (left, right) {
            (Side::Joined(left), Side::Joined(right)) => {
                let (rel, kept) = Relation::compose_kept(left, var_a, right, var_b, pairs);
                (rel, (kept.left, None), (kept.right, None))
            }
            (Side::Unjoined { doc, table }, Side::Joined(right)) => {
                let (col, rows, unjoined, joined_kept) =
                    join_unjoined(table, right, var_b, pairs.iter().copied());
                let mut rel = Relation::single(var_a, doc, col);
                rel.append(right.gathered(&rows));
                (rel, unjoined, (joined_kept, None))
            }
            (Side::Joined(left), Side::Unjoined { doc, table }) => {
                let flipped = pairs.iter().map(|&(a, b)| (b, a));
                let (col, rows, unjoined, joined_kept) = join_unjoined(table, left, var_a, flipped);
                let mut rel = left.gathered(&rows);
                rel.append(Relation::single(var_b, doc, col));
                (rel, (joined_kept, None), unjoined)
            }
            (
                Side::Unjoined { doc, table },
                Side::Unjoined {
                    doc: doc_b,
                    table: table_b,
                },
            ) => {
                let mut left_matched = Matched::new(table);
                let mut right_matched = Matched::new(table_b);
                for &(a, b) in pairs {
                    left_matched.hit(a);
                    right_matched.hit(b);
                }
                let mut rel = Relation::single(var_a, doc, pairs.iter().map(|&(a, _)| a).collect());
                let right_col = pairs.iter().map(|&(_, b)| b).collect();
                rel.append(Relation::single(var_b, doc_b, right_col));
                (rel, left_matched.finish(), right_matched.finish())
            }
        };
        Composed {
            rel,
            kept: KeptRows {
                left: left_out.0,
                right: right_out.0,
            },
            tables: (left_out.1, right_out.1),
        }
    }

    /// Every column gathered through a row-index list.
    fn gathered(&self, rows: &[u32]) -> Relation {
        Relation {
            schema: self.schema.clone(),
            docs: self.docs.clone(),
            cols: self.cols.iter().map(|col| gather(col, rows)).collect(),
        }
    }

    /// Append `other`'s attributes; both must have the same length.
    fn append(&mut self, other: Relation) {
        debug_assert_eq!(self.len(), other.len());
        self.schema.extend(other.schema);
        self.docs.extend(other.docs);
        self.cols.extend(other.cols);
    }

    /// Extend this relation with a new attribute through row-level pairs
    /// `(row index, node)` — the output of a step/value join executed with
    /// this relation's `var` column as context. `new_doc` is the document
    /// the new attribute's nodes live in.
    pub fn expand(&self, pairs: &[(u32, Pre)], new_var: VarId, new_doc: DocId) -> Relation {
        let mut schema = self.schema.clone();
        schema.push(new_var);
        let mut docs = self.docs.clone();
        docs.push(new_doc);
        let mut cols: Vec<Vec<Pre>> = self
            .cols
            .iter()
            .map(|col| pairs.iter().map(|&(row, _)| col[row as usize]).collect())
            .collect();
        cols.push(pairs.iter().map(|&(_, node)| node).collect());
        Relation { schema, docs, cols }
    }

    /// Cartesian product: every row of `a` against every row of `b` (used
    /// only to combine genuinely unconstrained components). Column-wise:
    /// `a`'s columns repeat each element `b.len()` times, `b`'s columns
    /// repeat whole `a.len()` times.
    pub fn cartesian(a: &Relation, b: &Relation) -> Relation {
        let mut schema = a.schema.clone();
        schema.extend_from_slice(&b.schema);
        let mut docs = a.docs.clone();
        docs.extend_from_slice(&b.docs);
        let (an, bn) = (a.len(), b.len());
        let mut cols = Vec::with_capacity(schema.len());
        for col in &a.cols {
            let mut out = Vec::with_capacity(an * bn);
            for &v in col {
                out.extend(std::iter::repeat_n(v, bn));
            }
            cols.push(out);
        }
        for col in &b.cols {
            let mut out = Vec::with_capacity(an * bn);
            for _ in 0..an {
                out.extend_from_slice(col);
            }
            cols.push(out);
        }
        Relation { schema, docs, cols }
    }
}

/// Gather `col` through a row-index list into a new output column.
fn gather(col: &[Pre], rows: &[u32]) -> Vec<Pre> {
    rows.iter().map(|&i| col[i as usize]).collect()
}

/// The join of an unjoined side's `table` with component `joined` on its
/// `var` column, through `pairs` given as (unjoined node, component node).
/// Returns the unjoined side's output column, the component row of each
/// output row, the unjoined side's kept flag and new table
/// ([`Matched::finish`]), and whether the component kept every row.
///
/// The unjoined side has one row per node, so each matched pair yields
/// its node once per row of the component node's group, in group order —
/// the row order of [`Relation::compose_kept`] on either side.
fn join_unjoined(
    table: &[Pre],
    joined: &Relation,
    var: VarId,
    pairs: impl ExactSizeIterator<Item = (Pre, Pre)>,
) -> (Vec<Pre>, Vec<u32>, SideOutcome, bool) {
    let index = RowIndex::build(joined.col(var));
    let mut hits = Hits::new(joined.len());
    let mut matched = Matched::new(table);
    let mut col = Vec::with_capacity(pairs.len());
    let mut rows = Vec::with_capacity(pairs.len());
    for (u, j) in pairs {
        let Some((group, group_rows)) = index.group(j) else {
            continue;
        };
        let group_rows = group_rows.rows();
        hits.mark(group, group_rows.len());
        matched.hit(u);
        col.extend(std::iter::repeat_n(u, group_rows.len()));
        rows.extend_from_slice(group_rows);
    }
    (col, rows, matched.finish(), hits.kept_all())
}

/// Which inputs of [`Relation::compose_kept`] kept every row: each of
/// that side's row indexes occurs in at least one output row. An empty
/// side trivially kept every row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeptRows {
    /// Every left row is in the output.
    pub left: bool,
    /// Every right row is in the output.
    pub right: bool,
}

/// A bitset over the node ids of one `[min, max]` span: bit `p - min`
/// stands for node `p`, one `u64` word per 64 ids. Callers keep the span
/// within one document, so it is bounded by the document's node count,
/// like a [`rox_index::PreSet`].
struct SpanBits {
    min: Pre,
    words: Vec<u64>,
}

impl SpanBits {
    /// The empty set over no span.
    const EMPTY: SpanBits = SpanBits {
        min: 0,
        words: Vec::new(),
    };

    /// An empty set over `[min, max]`.
    fn over(min: Pre, max: Pre) -> SpanBits {
        SpanBits {
            min,
            words: vec![0; ((max - min) as usize >> 6) + 1],
        }
    }

    /// The set of `col`'s nodes, over the column's own span.
    fn of(col: &[Pre]) -> SpanBits {
        let Some(&first) = col.first() else {
            return SpanBits::EMPTY;
        };
        let (min, max) = col
            .iter()
            .fold((first, first), |(lo, hi), &p| (lo.min(p), hi.max(p)));
        let mut bits = SpanBits::over(min, max);
        for &p in col {
            bits.insert(p);
        }
        bits
    }

    /// Add `p`, which must lie in the span.
    #[inline]
    fn insert(&mut self, p: Pre) {
        let bit = (p - self.min) as usize;
        self.words[bit >> 6] |= 1 << (bit & 63);
    }

    /// Number of nodes in the set.
    fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The nodes in the set, ascending.
    fn to_sorted(&self) -> Vec<Pre> {
        let mut nodes = Vec::with_capacity(self.count());
        for (i, &word) in self.words.iter().enumerate() {
            let base = self.min + (i as Pre) * 64;
            let mut w = word;
            while w != 0 {
                nodes.push(base + w.trailing_zeros());
                w &= w - 1;
            }
        }
        nodes
    }
}

/// Distinct nodes of a column, sorted in document order, read off a
/// bitset over the column's `[min, max]` span — no sort. The column's
/// nodes must lie in one document, which bounds the span.
pub fn distinct_sorted(col: &[Pre]) -> Vec<Pre> {
    SpanBits::of(col).to_sorted()
}

/// One input of [`Relation::compose_sides`].
#[derive(Clone, Copy, Debug)]
pub enum Side<'a> {
    /// A component relation.
    Joined(&'a Relation),
    /// A vertex no executed edge has touched yet, standing for the
    /// one-column relation of its table `T(v)`: distinct nodes in
    /// document order, all in `doc`.
    Unjoined {
        /// The document the nodes live in.
        doc: DocId,
        /// `T(v)`, strictly increasing.
        table: &'a [Pre],
    },
}

impl Side<'_> {
    /// Whether `p` may be a pair node on this side: any node on a joined
    /// side, only a node of its table on an unjoined one.
    fn holds(&self, p: Pre) -> bool {
        match self {
            Side::Joined(_) => true,
            Side::Unjoined { table, .. } => table.binary_search(&p).is_ok(),
        }
    }
}

/// The output of [`Relation::compose_sides`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Composed {
    /// The composed relation.
    pub rel: Relation,
    /// Which inputs kept every row (for an unjoined side: every node).
    pub kept: KeptRows,
    /// `(left, right)`: the new `T(v)` of an unjoined side that dropped
    /// nodes — the nodes it kept, ascending. `None` for a side that kept
    /// every node and for a joined side.
    pub tables: (Option<Vec<Pre>>, Option<Vec<Pre>>),
}

/// A side's kept flag and, for an unjoined side that dropped nodes, its
/// new table.
type SideOutcome = (bool, Option<Vec<Pre>>);

/// The matched nodes of an unjoined side: a bitset over its table's span.
struct Matched {
    /// `|T(v)|`.
    len: usize,
    bits: SpanBits,
}

impl Matched {
    fn new(table: &[Pre]) -> Matched {
        debug_assert!(table.windows(2).all(|w| w[0] < w[1]), "T(v) is sorted");
        let bits = match (table.first(), table.last()) {
            (Some(&min), Some(&max)) => SpanBits::over(min, max),
            _ => SpanBits::EMPTY,
        };
        Matched {
            len: table.len(),
            bits,
        }
    }

    /// Record that pair node `p` produced output rows.
    #[inline]
    fn hit(&mut self, p: Pre) {
        self.bits.insert(p);
    }

    /// Whether every node was matched, and if not, the matched nodes.
    fn finish(self) -> SideOutcome {
        if self.bits.count() == self.len {
            (true, None)
        } else {
            (false, Some(self.bits.to_sorted()))
        }
    }
}

/// A node → row-indexes multimap over one component column: the hash-free
/// replacement for `HashMap<NodeId, Vec<u32>>` in [`Relation::compose`].
///
/// A [`SpanBits`] over the column's `[min, max]` span, plus the rank (set
/// bits before it) of every 64-id word; a node's rank numbers its group in
/// a CSR over the distinct nodes, rows in row order per group. A strictly
/// increasing column needs no CSR: rank and row coincide. Group numbers
/// stay below the column length.
struct RowIndex {
    bits: SpanBits,
    /// `ranks[w]` = set bits in `bits.words[..w]`.
    ranks: Vec<u32>,
    /// `distinct + 1` prefix sums; the group of rank `r` is
    /// `rows[offsets[r]..offsets[r + 1]]`. Empty, as is `rows`, when the
    /// column is strictly increasing: rank `r` is row `r`.
    offsets: Vec<u32>,
    /// Row indexes grouped by node rank, row order per group.
    rows: Vec<u32>,
}

/// The rows of one [`RowIndex`] group.
enum Group<'a> {
    /// The single row of a node in a strictly increasing column.
    Row(u32),
    /// A CSR group.
    Rows(&'a [u32]),
}

impl Group<'_> {
    fn rows(&self) -> &[u32] {
        match self {
            Group::Row(row) => std::slice::from_ref(row),
            Group::Rows(rows) => rows,
        }
    }
}

impl RowIndex {
    fn build(col: &[Pre]) -> RowIndex {
        let bits = SpanBits::of(col);
        let mut ranks = Vec::with_capacity(bits.words.len());
        let mut distinct = 0u32;
        for &w in &bits.words {
            ranks.push(distinct);
            distinct += w.count_ones();
        }
        let mut index = RowIndex {
            bits,
            ranks,
            offsets: Vec::new(),
            rows: Vec::new(),
        };
        if col.windows(2).all(|w| w[0] < w[1]) {
            return index;
        }
        // Counting sort by rank. `offsets[r + 1]` first counts group `r`,
        // then holds its start and serves as its fill cursor, ending at
        // its end — which is group `r + 1`'s start.
        let mut offsets = vec![0u32; distinct as usize + 1];
        for &p in col {
            offsets[index.rank(p) + 1] += 1;
        }
        let mut start = 0;
        for slot in &mut offsets[1..] {
            let count = *slot;
            *slot = start;
            start += count;
        }
        let mut rows = vec![0u32; col.len()];
        for (row, &p) in col.iter().enumerate() {
            let cursor = &mut offsets[index.rank(p) + 1];
            rows[*cursor as usize] = row as u32;
            *cursor += 1;
        }
        index.offsets = offsets;
        index.rows = rows;
        index
    }

    /// Rank of node `p`, which must be in the column.
    #[inline]
    fn rank(&self, p: Pre) -> usize {
        let bit = (p - self.bits.min) as usize;
        let word = self.bits.words[bit >> 6];
        (self.ranks[bit >> 6] + (word & ((1 << (bit & 63)) - 1)).count_ones()) as usize
    }

    /// The group of node `p`: its number (below the column length) and its
    /// rows in row order, or `None` when `p` is not in the column.
    #[inline]
    fn group(&self, p: Pre) -> Option<(usize, Group<'_>)> {
        let bit = p.checked_sub(self.bits.min)? as usize;
        let word = *self.bits.words.get(bit >> 6)?;
        let mask = 1u64 << (bit & 63);
        if word & mask == 0 {
            return None;
        }
        let r = (self.ranks[bit >> 6] + (word & (mask - 1)).count_ones()) as usize;
        if self.offsets.is_empty() {
            return Some((r, Group::Row(r as u32)));
        }
        let group = &self.rows[self.offsets[r] as usize..self.offsets[r + 1] as usize];
        Some((r, Group::Rows(group)))
    }
}

/// Which groups of a [`RowIndex`] produced output rows, and the rows they
/// cover: the side kept every row once the covered rows reach its length.
struct Hits {
    hit: Vec<bool>,
    covered: usize,
}

impl Hits {
    fn new(rows: usize) -> Hits {
        Hits {
            hit: vec![false; rows],
            covered: 0,
        }
    }

    #[inline]
    fn mark(&mut self, group: usize, rows: usize) {
        if !self.hit[group] {
            self.hit[group] = true;
            self.covered += rows;
        }
    }

    fn kept_all(&self) -> bool {
        self.covered == self.hit.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: DocId = DocId(0);

    fn rel(var: VarId, pres: &[u32]) -> Relation {
        Relation::single(var, D, pres.to_vec())
    }

    #[test]
    fn single_and_basics() {
        let r = rel(1, &[3, 5, 5]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.schema(), &[1]);
        assert_eq!(r.doc_of(1), D);
        assert_eq!(r.distinct_nodes(1), vec![3, 5]);
        assert_eq!(r.node(1, 0), rox_xmldb::NodeId::new(D, 3));
    }

    #[test]
    fn expand_adds_column_with_multiplicity() {
        let r = rel(1, &[3, 5]);
        let pairs = vec![(0u32, 10), (0u32, 11), (1u32, 12)];
        let e = r.expand(&pairs, 2, DocId(7));
        assert_eq!(e.schema(), &[1, 2]);
        assert_eq!(e.len(), 3);
        assert_eq!(e.col(1), &[3, 3, 5]);
        assert_eq!(e.col(2), &[10, 11, 12]);
        assert_eq!(e.doc_of(2), DocId(7));
    }

    #[test]
    fn compose_cross_multiplies_matching_rows() {
        // left has node 3 twice.
        let left = rel(1, &[3, 3, 5]);
        let right = rel(2, &[7, 8]);
        let pairs = vec![(3, 7), (5, 8)];
        let j = Relation::compose(&left, 1, &right, 2, &pairs);
        assert_eq!(j.schema(), &[1, 2]);
        assert_eq!(j.len(), 3); // (3,7) ×2 + (5,8)
        assert_eq!(j.col(1), &[3, 3, 5]);
        assert_eq!(j.col(2), &[7, 7, 8]);
    }

    #[test]
    fn compose_ignores_pairs_without_rows() {
        let left = rel(1, &[3]);
        let right = rel(2, &[7]);
        let pairs = vec![(4, 7), (3, 9)];
        let j = Relation::compose(&left, 1, &right, 2, &pairs);
        assert!(j.is_empty());
    }

    #[test]
    fn distinct_removes_duplicate_rows() {
        let mut r = rel(1, &[3, 3, 5, 3]);
        r.distinct();
        assert_eq!(r.col(1), &[3, 5]);
    }

    #[test]
    fn distinct_keeps_first_occurrence_order() {
        let mut r = Relation::empty(vec![1, 2], vec![D, D]);
        r.push_row(&[5, 1]);
        r.push_row(&[3, 9]);
        r.push_row(&[5, 1]); // dup of row 0
        r.push_row(&[3, 8]);
        r.push_row(&[3, 9]); // dup of row 1
        r.distinct();
        assert_eq!(r.col(1), &[5, 3, 3]);
        assert_eq!(r.col(2), &[1, 9, 8]);
    }

    #[test]
    fn sort_by_orders_rows() {
        let mut r = Relation::empty(vec![1, 2], vec![D, D]);
        r.push_row(&[5, 1]);
        r.push_row(&[3, 9]);
        r.push_row(&[5, 0]);
        r.sort_by(&[1, 2]);
        assert_eq!(r.col(1), &[3, 5, 5]);
        assert_eq!(r.col(2), &[9, 0, 1]);
    }

    #[test]
    fn project_clones_columns() {
        let mut r = Relation::empty(vec![1, 2], vec![D, DocId(3)]);
        r.push_row(&[5, 1]);
        let p = r.project(&[2]);
        assert_eq!(p.schema(), &[2]);
        assert_eq!(p.col(2), &[1]);
        assert_eq!(p.doc_of(2), DocId(3));
    }

    #[test]
    fn retain_rows_filters() {
        let mut r = rel(1, &[1, 2, 3, 4]);
        r.retain_rows(&[true, false, true, false]);
        assert_eq!(r.col(1), &[1, 3]);
    }

    #[test]
    fn cartesian_repeats_in_row_major_order() {
        let a = rel(1, &[1, 2]);
        let b = rel(2, &[8, 9]);
        let c = Relation::cartesian(&a, &b);
        assert_eq!(c.col(1), &[1, 1, 2, 2]);
        assert_eq!(c.col(2), &[8, 9, 8, 9]);
    }

    #[test]
    fn sample_rows_is_subset() {
        let r = rel(1, &(0..100).collect::<Vec<_>>());
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let s = r.sample_rows(&mut rng, 10);
        assert_eq!(s.len(), 10);
    }
}
