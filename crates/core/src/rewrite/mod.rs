//! Consistent-answer query rewriting.
//!
//! Two generations of rewriting, as the paper tells the story:
//!
//! * [`residue`] — the original 1999 method (§2.2, Example 3.4): resolve
//!   query literals against the clausal forms of the ICs and append the
//!   residues. Historically first, correct on the identified positive cases,
//!   no general guarantee.
//! * [`keys`] — the mature theory for self-join-free conjunctive queries
//!   under primary keys (Fuxman–Miller \[64\], Koutris–Wijsen \[77\]): build the
//!   **attack graph**; if it is acyclic the certain answers are computable by
//!   an effectively constructible FO query, otherwise CQA for the query is
//!   coNP-complete and the caller must fall back to repair enumeration. The
//!   same rewriting compiles to index probes ([`KeyPlan`]).

pub mod keys;
pub mod residue;

pub use keys::{attack_graph, rewrite_key_query, AttackGraph, KeyPlan, KeyRewriteError, KeyRun};
pub use residue::{residue_rewrite, ResidueRewriting};
