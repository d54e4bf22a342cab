//! Static, bulk-loaded in-memory B+-tree with bidirectional window
//! expansion.
//!
//! The substrate behind QALSH (Section 3.1 of the PM-LSH paper): one
//! B+-tree per query-aware hash function stores `(h_i(o), id)` pairs;
//! queries expand a window around `h_i(q)` via [`cursor::ExpandingCursor`]
//! to count collisions under virtual rehashing. QALSH builds each tree once
//! from sorted pairs and never edits it, so the tree has no insert or
//! delete.

#![warn(missing_docs)]

pub mod cursor;
pub mod tree;

pub use cursor::ExpandingCursor;
pub use tree::BPlusTree;
