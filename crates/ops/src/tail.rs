//! The plan tail (§2.1): projection, duplicate elimination and the
//! numbering/sort that restore XQuery's order and distinctness semantics
//! on top of the order-independent Join Graph result.

use crate::cost::Cost;
use crate::relation::{Relation, VarId};

/// The tail of a plan: `π_keep ∘ τ_sort ∘ δ ∘ π_dedup` as in Fig. 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tail {
    /// Variables the distinct step works on (`π` before `δ`).
    pub dedup_vars: Vec<VarId>,
    /// Sort order restoring document order of the `for` variables (`τ`).
    pub sort_vars: Vec<VarId>,
    /// Final projection (the `return` expression's variable).
    pub output_vars: Vec<VarId>,
}

impl Tail {
    /// Apply the tail to a fully joined relation. `δ` and `τ` work on the
    /// same variables — what the compiler always emits — so one sort does
    /// both ([`Relation::sort_distinct`]).
    pub fn apply(&self, joined: &Relation, cost: &mut Cost) -> Relation {
        debug_assert_eq!(self.dedup_vars, self.sort_vars);
        cost.charge_in(joined.len());
        let mut r = joined.project(&self.dedup_vars);
        r.sort_distinct();
        let out = r.project(&self.output_vars);
        cost.charge_out(out.len());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rox_xmldb::catalog::DocId;

    #[test]
    fn tail_dedups_sorts_and_projects() {
        // Fully joined relation over vars (1, 2) with duplicates and
        // shuffled order.
        let mut r = Relation::empty(vec![1, 2], vec![DocId(0), DocId(0)]);
        r.push_row(&[5, 30]);
        r.push_row(&[3, 20]);
        r.push_row(&[5, 30]); // duplicate pair
        r.push_row(&[5, 10]);
        let tail = Tail {
            dedup_vars: vec![1, 2],
            sort_vars: vec![1, 2],
            output_vars: vec![1],
        };
        let mut cost = Cost::new();
        let out = tail.apply(&r, &mut cost);
        // (3,20), (5,10), (5,30): output column of var 1.
        assert_eq!(out.col(1), &[3, 5, 5]);
    }

    #[test]
    fn one_sort_matches_distinct_then_sort() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for case in 0..200 {
            let width = 1 + case % 3;
            let schema: Vec<VarId> = (0..width as VarId).collect();
            let mut r = Relation::empty(schema.clone(), vec![DocId(0); width]);
            let range = 1 + rng.random_range(0..8u32);
            for _ in 0..rng.random_range(0..40) {
                let row: Vec<u32> = (0..width).map(|_| rng.random_range(0..range)).collect();
                r.push_row(&row);
            }
            // The dedup/sort variables in a random order, as the compiler
            // may list them; the output is one of them or all.
            let mut vars = schema.clone();
            vars.rotate_left(case % width);
            let output_vars = if case % 2 == 0 {
                vars.clone()
            } else {
                vec![vars[0]]
            };
            let tail = Tail {
                dedup_vars: vars.clone(),
                sort_vars: vars,
                output_vars,
            };
            let mut cost = Cost::new();
            let fused = tail.apply(&r, &mut cost);
            // The two-step reference: distinct, then sort.
            let mut stepped = r.project(&tail.dedup_vars);
            stepped.distinct();
            stepped.sort_by(&tail.sort_vars);
            let stepped = stepped.project(&tail.output_vars);
            let mut expected = Cost::new();
            expected.charge_in(r.len());
            expected.charge_out(stepped.len());
            assert_eq!(fused, stepped, "case {case}");
            assert_eq!(cost, expected, "case {case}");
        }
    }

    #[test]
    fn tail_with_single_variable() {
        let mut r = Relation::empty(vec![7], vec![DocId(0)]);
        r.push_row(&[2]);
        r.push_row(&[1]);
        r.push_row(&[2]);
        let tail = Tail {
            dedup_vars: vec![7],
            sort_vars: vec![7],
            output_vars: vec![7],
        };
        let out = tail.apply(&r, &mut Cost::new());
        assert_eq!(out.col(7), &[1, 2]);
    }
}
