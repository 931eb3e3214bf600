//! The normalized pq-gram distance — step 4 of the pipeline.
//!
//! For profiles `ϕ(T1)` and `ϕ(T2)`:
//!
//! ```text
//!            |ϕ(T1) ∪ ϕ(T2)| − 2·|ϕ(T1) ∩ ϕ(T2)|
//! d(T1,T2) = ------------------------------------
//!            |ϕ(T1) ∪ ϕ(T2)| −   |ϕ(T1) ∩ ϕ(T2)|
//! ```
//!
//! with `|∪| = |ϕ(T1)| + |ϕ(T2)| − |∩|`. This is the exact formula of the
//! paper's worked examples (it reproduces d(TA,TB) = 0.50 and the 0.71 /
//! 0.76 / 1.0 values of the Registration example). It is `0` for identical
//! profiles and `1` for disjoint ones; note that for *highly* overlapping
//! profiles (intersection above one third of the union) the value dips below
//! zero — the function is strictly decreasing in the intersection size, so
//! `argmin`-style ranking (the `Match` function) is unaffected.

use std::hash::Hash;

use crate::profile::PqGramProfile;
use crate::tree::Tree;

/// Normalized pq-gram distance between two profiles (built with the same
/// `(p, q)`).
///
/// Two empty profiles are defined to be at distance `0`.
///
/// # Panics
/// Panics when the profiles were built with different `(p, q)` parameters —
/// comparing them would be meaningless.
pub fn normalized_distance<L: Eq + Hash>(a: &PqGramProfile<L>, b: &PqGramProfile<L>) -> f64 {
    assert_eq!(
        (a.p(), a.q()),
        (b.p(), b.q()),
        "profiles built with different (p,q) parameters"
    );
    distance_from_sizes(a.len(), b.len(), a.intersection_size(b))
}

/// The normalized pq-gram distance from the two profile sizes `|ϕ(T1)|`,
/// `|ϕ(T2)|` and their bag-intersection size `|ϕ(T1) ∩ ϕ(T2)|` — the one
/// place the formula lives, shared by plain and windowed profiles and by
/// callers that count the intersection themselves.
///
/// `0` when the union equals the intersection (identical profiles,
/// including both empty).
pub fn distance_from_sizes(len_a: usize, len_b: usize, inter: usize) -> f64 {
    let union = (len_a + len_b - inter) as f64;
    let inter = inter as f64;
    if union == inter {
        return 0.0;
    }
    (union - 2.0 * inter) / (union - inter)
}

/// Convenience: build `(p,q)` profiles for two trees and return their
/// normalized distance.
///
/// ```
/// use sedex_pqgram::{distance::tree_distance, Tree};
/// // The paper's Fig. 6 example: d(TA, TB) = 0.50 with p=2, q=1.
/// let mut ta = Tree::new("d");
/// ta.add_child(0, "b");
/// ta.add_child(0, "c");
/// let e = ta.add_child(0, "e");
/// ta.add_child(e, "a");
/// ta.add_child(e, "d");
/// let mut tb = Tree::new("d");
/// tb.add_child(0, "b");
/// let c = tb.add_child(0, "c");
/// tb.add_child(0, "e");
/// tb.add_child(c, "f");
/// assert_eq!(tree_distance(&ta, &tb, 2, 1), 0.5);
/// ```
pub fn tree_distance<L: Clone + Eq + Hash + Ord>(
    t1: &Tree<L>,
    t2: &Tree<L>,
    p: usize,
    q: usize,
) -> f64 {
    let p1 = PqGramProfile::new(t1, p, q);
    let p2 = PqGramProfile::new(t2, p, q);
    normalized_distance(&p1, &p2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ta() -> Tree<String> {
        let mut t = Tree::new("d".to_string());
        t.add_child(0, "b".into());
        t.add_child(0, "c".into());
        let e = t.add_child(0, "e".into());
        t.add_child(e, "a".into());
        t.add_child(e, "d".into());
        t
    }

    fn tb() -> Tree<String> {
        let mut t = Tree::new("d".to_string());
        t.add_child(0, "b".into());
        let c = t.add_child(0, "c".into());
        t.add_child(0, "e".into());
        t.add_child(c, "f".into());
        t
    }

    #[test]
    fn fig6_distance_is_one_half() {
        // The paper: d(TA, TB) = (12 − 2·4) / (12 − 4) = 0.50.
        let d = tree_distance(&ta(), &tb(), 2, 1);
        assert!((d - 0.5).abs() < 1e-12, "got {d}");
    }

    #[test]
    fn identical_trees_have_distance_zero() {
        assert_eq!(tree_distance(&ta(), &ta(), 2, 1), 0.0);
    }

    #[test]
    fn disjoint_trees_have_distance_one() {
        let mut t1 = Tree::new("x".to_string());
        t1.add_child(0, "y".into());
        let mut t2 = Tree::new("p".to_string());
        t2.add_child(0, "q".into());
        assert_eq!(tree_distance(&t1, &t2, 2, 1), 1.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let d1 = tree_distance(&ta(), &tb(), 2, 1);
        let d2 = tree_distance(&tb(), &ta(), 2, 1);
        assert_eq!(d1, d2);
    }

    #[test]
    fn distance_at_most_one() {
        for (p, q) in [(1, 1), (2, 1), (2, 2), (3, 2)] {
            let d = tree_distance(&ta(), &tb(), p, q);
            assert!(d <= 1.0, "d={d} for p={p},q={q}");
            assert_eq!(tree_distance(&ta(), &ta(), p, q), 0.0);
        }
    }

    #[test]
    fn near_identical_trees_can_go_negative_but_rank_correctly() {
        // Strictly decreasing in the intersection: a tree differing in one
        // label is *closer* than one differing in two, even when the raw
        // values leave [0,1].
        let mut two_off = Tree::new("d".to_string());
        two_off.add_child(0, "X".into());
        two_off.add_child(0, "Y".into());
        let e2 = two_off.add_child(0, "e".into());
        two_off.add_child(e2, "a".into());
        two_off.add_child(e2, "d".into());
        let d_same = tree_distance(&ta(), &ta(), 2, 1);
        let d_two = tree_distance(&ta(), &two_off, 2, 1);
        assert!(d_same < d_two);
        assert!(d_two <= 1.0);
    }

    #[test]
    #[should_panic(expected = "different (p,q)")]
    fn mismatched_parameters_panic() {
        let p1 = PqGramProfile::new(&ta(), 2, 1);
        let p2 = PqGramProfile::new(&tb(), 3, 1);
        let _ = normalized_distance(&p1, &p2);
    }
}
