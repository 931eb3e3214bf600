//! Windowed pq-grams for unordered trees (Augsten et al., VLDB J. 2012).
//!
//! Plain pq-grams are sensitive to sibling order. SEDEX's trees are
//! *unordered* (column order in a relation is irrelevant), which the paper
//! addresses by (a) sorting siblings lexicographically and (b) citing the
//! *windowed* pq-gram construction. With `q = 1` — the setting used in every
//! worked example of the paper — sorted plain pq-grams and windowed pq-grams
//! coincide; for `q > 1` this module implements the windowed construction:
//!
//! For each anchor node the (lexicographically sorted) children are treated
//! as a **circular** list. For every child `c_i`, a window holds `c_i` and
//! the `w − 1` children following it circularly; each windowed pq-gram is
//! the stem plus `c_i` plus one `(q−1)`-subset of the rest of the window,
//! with the subset kept in sorted order. Leaves contribute the all-dummy
//! window, exactly as in the plain construction.

use std::hash::Hash;

use crate::bag::Bag;
use crate::distance::distance_from_sizes;
use crate::profile::{Gram, PqLabel};
use crate::tree::{NodeId, Tree};

/// A windowed pq-gram profile with parameters `(p, q, w)`, `w ≥ q`.
#[derive(Debug, Clone)]
pub struct WindowedProfile<L: Eq + Hash> {
    p: usize,
    q: usize,
    w: usize,
    grams: Bag<Gram<L>>,
}

impl<L: Clone + Eq + Hash + Ord> WindowedProfile<L> {
    /// Build the windowed profile of a tree of real labels.
    ///
    /// # Panics
    /// Panics when `p == 0`, `q == 0` or `w < q`.
    pub fn new(tree: &Tree<L>, p: usize, q: usize, w: usize) -> Self {
        let wrapped: Tree<PqLabel<L>> = tree.map_labels(|l| PqLabel::Label(l.clone()));
        Self::from_pq_tree(&wrapped, p, q, w)
    }

    /// Build the windowed profile of a tree that may contain dummy labels;
    /// dummies are never anchors (same convention as
    /// [`crate::profile::PqGramProfile::from_pq_tree`]).
    ///
    /// # Panics
    /// Panics when `p == 0`, `q == 0` or `w < q`.
    pub fn from_pq_tree(tree: &Tree<PqLabel<L>>, p: usize, q: usize, w: usize) -> Self {
        assert!(p > 0 && q > 0, "pq-gram parameters must be positive");
        assert!(w >= q, "window must be at least q wide");
        let mut sorted = tree.clone();
        sorted.sort_siblings();
        let mut grams = Bag::new();
        for anchor in sorted.preorder() {
            if sorted.label(anchor).is_dummy() {
                continue;
            }
            let stem = stem_of(&sorted, anchor, p);
            let kids: Vec<PqLabel<L>> = sorted
                .children(anchor)
                .iter()
                .map(|&c| sorted.label(c).clone())
                .collect();
            if kids.is_empty() {
                grams.insert(Gram {
                    stem: stem.clone(),
                    window: vec![PqLabel::Dummy; q],
                });
                continue;
            }
            let k = kids.len();
            for i in 0..k {
                // The w−1 children circularly following c_i, without wrapping
                // past a full revolution.
                let follow: Vec<PqLabel<L>> = (1..w)
                    .filter(|&j| j < k)
                    .map(|j| kids[(i + j) % k].clone())
                    .collect();
                // Pad with dummies when fewer than q−1 followers exist.
                for mut subset in subsets(&follow, q - 1) {
                    subset.sort();
                    let mut window = Vec::with_capacity(q);
                    window.push(kids[i].clone());
                    window.extend(subset);
                    while window.len() < q {
                        window.push(PqLabel::Dummy);
                    }
                    grams.insert(Gram {
                        stem: stem.clone(),
                        window,
                    });
                }
            }
        }
        WindowedProfile { p, q, w, grams }
    }
}

fn stem_of<L: Clone + Eq + Hash>(
    tree: &Tree<PqLabel<L>>,
    anchor: NodeId,
    p: usize,
) -> Vec<PqLabel<L>> {
    let mut rev = Vec::with_capacity(p);
    rev.push(tree.label(anchor).clone());
    let mut cur = anchor;
    for _ in 1..p {
        match tree.parent(cur) {
            Some(par) => {
                rev.push(tree.label(par).clone());
                cur = par;
            }
            None => rev.push(PqLabel::Dummy),
        }
    }
    rev.reverse();
    rev
}

/// All `k`-element subsets of `items` (by index combination). For `k = 0`
/// there is exactly one (empty) subset. When `items.len() < k`, the single
/// subset of all items is returned (the caller pads with dummies).
pub fn subsets<T: Clone>(items: &[T], k: usize) -> Vec<Vec<T>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    if items.len() <= k {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(idx.iter().map(|&i| items[i].clone()).collect());
        // Advance the combination.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + items.len() - k {
                break;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

impl<L: Eq + Hash> WindowedProfile<L> {
    /// The `p` parameter.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The `q` parameter.
    pub fn q(&self) -> usize {
        self.q
    }

    /// The window width `w`.
    pub fn w(&self) -> usize {
        self.w
    }

    /// Number of grams with multiplicity.
    pub fn len(&self) -> usize {
        self.grams.len()
    }

    /// Whether the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.grams.is_empty()
    }

    /// The underlying bag.
    pub fn bag(&self) -> &Bag<Gram<L>> {
        &self.grams
    }

    /// Normalized windowed pq-gram distance (same formula as the plain
    /// distance).
    ///
    /// # Panics
    /// Panics when the profiles' `(p, q, w)` parameters differ.
    pub fn distance(&self, other: &Self) -> f64 {
        assert_eq!(
            (self.p, self.q, self.w),
            (other.p, other.q, other.w),
            "profiles built with different (p,q,w) parameters"
        );
        distance_from_sizes(
            self.len(),
            other.len(),
            self.grams.intersection_size(&other.grams),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::PqGramProfile;

    fn ta() -> Tree<String> {
        let mut t = Tree::new("d".to_string());
        t.add_child(0, "b".into());
        t.add_child(0, "c".into());
        let e = t.add_child(0, "e".into());
        t.add_child(e, "a".into());
        t.add_child(e, "d".into());
        t
    }

    #[test]
    fn q1_coincides_with_plain_profile() {
        // With q = 1 the subset part is empty, so windowed grams equal plain
        // grams on the sorted tree.
        let plain = PqGramProfile::new(&ta(), 2, 1);
        let win = WindowedProfile::new(&ta(), 2, 1, 2);
        assert_eq!(plain.len(), win.len());
        for (g, c) in plain.bag().iter() {
            assert_eq!(win.bag().count(g), c, "gram {g:?}");
        }
    }

    #[test]
    fn order_invariance_q2() {
        // Reordering siblings must not change the windowed profile.
        let base = WindowedProfile::new(&ta(), 2, 2, 3);
        let mut shuffled = Tree::new("d".to_string());
        let e = shuffled.add_child(0, "e".into());
        shuffled.add_child(0, "c".into());
        shuffled.add_child(0, "b".into());
        shuffled.add_child(e, "d".into());
        shuffled.add_child(e, "a".into());
        let other = WindowedProfile::new(&shuffled, 2, 2, 3);
        assert_eq!(base.distance(&other), 0.0);
    }

    #[test]
    fn distance_detects_label_changes() {
        let mut t2 = Tree::new("d".to_string());
        t2.add_child(0, "b".into());
        t2.add_child(0, "c".into());
        let e = t2.add_child(0, "e".into());
        t2.add_child(e, "a".into());
        t2.add_child(e, "ZZZ".into());
        let d = WindowedProfile::new(&ta(), 2, 2, 3).distance(&WindowedProfile::new(&t2, 2, 2, 3));
        // Distinguishable from identity (0) and from disjointness (1).
        assert!(d != 0.0 && d < 1.0, "d = {d}");
    }

    #[test]
    fn leaf_only_tree() {
        let t = Tree::new("x".to_string());
        let w = WindowedProfile::new(&t, 2, 2, 3);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn subsets_enumeration() {
        let items = [1, 2, 3];
        let s = subsets(&items, 2);
        assert_eq!(s, vec![vec![1, 2], vec![1, 3], vec![2, 3]]);
        assert_eq!(subsets(&items, 0), vec![Vec::<i32>::new()]);
        assert_eq!(subsets(&items, 5), vec![vec![1, 2, 3]]);
    }

    #[test]
    fn small_child_lists_pad_with_dummies() {
        // Node with a single child but q = 2: the window must pad.
        let mut t = Tree::new("r".to_string());
        t.add_child(0, "a".into());
        let w = WindowedProfile::new(&t, 2, 2, 3);
        // Anchors: r (1 child → 1 gram) and a (leaf → 1 gram).
        assert_eq!(w.len(), 2);
    }
}
