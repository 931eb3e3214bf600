//! # sedex-pqgram
//!
//! Tree-similarity kernel of SEDEX (Section 4.3 of the paper): **pq-grams**
//! over lexicographically sorted trees, plus the **windowed pq-gram** variant
//! of Augsten et al. for unordered trees.
//!
//! Tree edit distance is NP-complete for unordered trees, so SEDEX measures
//! the distance between a source tuple tree and the candidate target relation
//! trees with pq-grams, which run in linear time and capture both
//! parent/child and sibling structure. The pipeline is:
//!
//! 1. **Sort** — order siblings lexicographically by label ([`sort`]).
//! 2. **Extend** — add `p-1` dummy ancestors above the root, `q-1` dummies
//!    around each child list and `q` dummy children below each leaf
//!    ([`extend`]; the profile builder does this implicitly).
//! 3. **Decompose** — slide a `(p,q)` window over the extended tree,
//!    producing the multiset of pq-grams ([`profile`]).
//! 4. **Distance** — compare two multisets with the normalized pq-gram
//!    distance ([`distance`]).
//!
//! The crate is generic over the label type so it serves both schema-level
//! trees (labels are property names mapped through correspondences) and any
//! other labeled tree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bag;
pub mod distance;
pub mod extend;
pub mod profile;
pub mod sort;
pub mod ted;
pub mod tree;
pub mod windowed;

pub use bag::Bag;
pub use distance::{distance_from_sizes, normalized_distance};
pub use profile::{Gram, PqGramProfile, PqLabel};
pub use ted::{normalized_tree_edit_distance, tree_edit_distance};
pub use tree::{NodeId, Tree};
pub use windowed::WindowedProfile;
