//! # sedex-core
//!
//! The SEDEX engine — Scalable Entity Preserving Data Exchange (Sekhavat &
//! Parsons, IEEE TKDE 2016). SEDEX is a *hybrid* data-exchange system: it
//! decides where each source **entity** lands in the target by comparing the
//! data-level **tuple tree** of each source tuple against the schema-level
//! **relation trees** of the target, using windowed pq-gram similarity. Data
//! is then moved by generated insertion scripts which are cached by tuple
//! tree shape and *reused* for every tuple with the same structure — the
//! source of SEDEX's scalability (Figs. 12–15 of the paper).
//!
//! The pay-as-you-go pipeline (Fig. 1) is written once, in a crate-private
//! pipeline module, and run two ways: [`engine::SedexEngine`] runs one
//! pass of it over a whole source instance, and [`session::SedexSession`]
//! runs one step per pushed tuple and one pass per flush. The steps:
//!
//! 1. load CFDs ([`cfd`]) and pre-process the source,
//! 2. build source/target schema forests, order relations by descending
//!    relation-tree height ([`sedex_treerep::forest`], Section 4.1),
//! 3. per unseen tuple: build its tuple tree (marking referenced tuples as
//!    seen, [`marking`], Section 4.2), reduce it, and look its shape key up
//!    in the script repository ([`repository`]);
//! 4. on a miss: run the `Match` function ([`matcher`], Section 4.3),
//!    translate the tuple tree (Algorithm 1, [`mod@translate`]), generate the
//!    insertion script (Algorithm 2, [`scriptgen`]) and store it;
//! 5. run the script against the target under the target egds
//!    ([`script`], Section 4.4.3).
//!
//! The EDEX predecessor (super-entity based, no script reuse) is provided as
//! a baseline in [`edex`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfd;
pub mod edex;
pub mod engine;
pub mod marking;
pub mod matcher;
pub mod metrics;
mod pipeline;
pub mod quality;
pub mod render;
pub mod repository;
pub mod script;
pub mod scriptgen;
pub mod session;
mod trace;
pub mod translate;

pub use cfd::{Cfd, CfdInterpreter, CfdParseError};
pub use edex::EdexEngine;
pub use engine::{SedexConfig, SedexEngine};
pub use matcher::{MatchResult, Matcher};
pub use metrics::{ExchangeReport, HitEvent};
pub use quality::{compare, QualityReport};
pub use render::{sql_statements, sql_template, xml_document, ReportVerbose};
pub use repository::{RepositoryExport, ScriptRepository};
pub use script::{run_script, ResolvedScript, Script, SlotRef, Statement};
pub use session::{SedexSession, SessionReadSnapshot, SessionState};
pub use translate::{translate, TranslatedNode, TranslatedTree};

/// Re-export of the observability crate: [`observe::Observer`] plugs into
/// [`SedexEngine::with_observer`] / [`SedexSession::with_observer`], and
/// [`observe::MetricsRegistry`] + [`observe::render_prometheus`] turn the
/// emitted events into a Prometheus scrape body.
pub use sedex_observe as observe;
pub use sedex_observe::{
    Event, MetricsRegistry, NoopObserver, Observer, Phase, PhaseTotals, RegistryObserver,
};
