//! # sedex-treerep
//!
//! The tree representation of data from Section 3 of the SEDEX paper:
//!
//! * **relation trees** ([`mod@relation_tree`]) — schema-level trees rooted at a
//!   relation's primary key (or a dummy `*`), whose edges are functional
//!   dependencies: a node's children are the properties it uniquely
//!   identifies, recursively following foreign keys (Def. 1);
//! * **schema forests** ([`forest`]) — the set of all relation trees of a
//!   schema (Def. 2), with the descending-height processing order of
//!   Section 4.1;
//! * **tuple trees** ([`mod@tuple_tree`]) — data-level trees of
//!   `(property : value)` pairs built from one tuple, dropping null-valued
//!   properties ("not having a property is not a property") and following
//!   foreign keys into referenced tuples (Def. 3);
//! * **reduction** ([`reduce`]) — `RT(Tt)`, the schema-level view of a tuple
//!   tree obtained by replacing `(property : value)` with `property`;
//! * **shape keys** ([`shape`]) — the post-order string representation of
//!   `RT(Tt)` that keys the script repository (Section 4.4.2), and the
//!   tree-free shape walk that yields it as integer ids.
//!
//! Tuple trees and shape walks share one traversal (`walk`), so the rules
//! of Def. 3 are written once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod forest;
pub mod reduce;
pub mod relation_tree;
pub mod shape;
pub mod tuple_tree;
mod walk;

pub use forest::SchemaForest;
pub use reduce::reduce_to_relation_tree;
pub use relation_tree::{relation_tree, RelationTree, TreeConfig};
pub use shape::{
    post_order_key, repository_key, tuple_shape_key, Shape, ShapeCatalog, Shapes, STAR,
};
pub use tuple_tree::{tuple_tree, SeenRef, TupleNode, TupleTree};
pub use walk::NULL_SLOT;

/// Label type shared by relation and tuple trees: real labels wrapped in
/// [`sedex_pqgram::PqLabel`], with the dummy used for keyless roots.
pub type SchemaLabel = sedex_pqgram::PqLabel<String>;
