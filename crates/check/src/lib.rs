//! # samoa-check — systematic schedule exploration for the SAMOA runtime
//!
//! The paper argues its versioning algorithms guarantee the isolation
//! property *on every schedule*; ordinary tests only ever see the handful of
//! schedules the OS happens to produce. This crate makes schedules
//! first-class: it installs a cooperative [`Controller`] as the runtime's
//! [`SchedHook`](samoa_core::SchedHook), serialising all runtime threads
//! into turn-taking, and drives a workload [`Scenario`] through thousands of
//! distinct interleavings — seeded random walks, PCT priority schedules, or
//! exhaustive bounded enumeration. Every run is checked with the
//! serializability checker ([`History::check_isolation`]) plus
//! scenario-specific invariants, and a failure yields a [`Witness`]: the
//! exact choice trace, greedily minimised, that [`Explorer::replay`]
//! reproduces deterministically.
//!
//! ```
//! use samoa_check::{DiamondScenario, Explorer, ExplorerConfig, Strategy};
//! use samoa_core::Policy;
//!
//! // The unsynchronised diamond hides the paper's run r3; a short random
//! // walk finds it and pins it down to a replayable trace.
//! let scenario = DiamondScenario::new(Policy::Unsync);
//! let got = Explorer::explore(
//!     &scenario,
//!     &ExplorerConfig::new(500, Strategy::Random { seed: 1 }),
//! );
//! let witness = got.violation.expect("unsync diamond must violate isolation");
//! assert_eq!(Explorer::replay(&scenario, &witness), Some(witness.failure.clone()));
//!
//! // The same workload under VCAbasic survives every schedule tried.
//! let safe = DiamondScenario::new(Policy::Basic);
//! let got = Explorer::explore(&safe, &ExplorerConfig::new(100, Strategy::Random { seed: 1 }));
//! assert!(got.violation.is_none());
//! ```
//!
//! [`History::check_isolation`]: samoa_core::History::check_isolation

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod controller;
pub mod dpor;
pub mod explorer;
pub mod faults;
pub mod independence;
pub mod scenarios;
pub mod strategy;

pub use controller::{ChoiceRecord, Controller, ScheduleTrace, SegEvent, StepRecord};
pub use dpor::{DporSearch, HappensBefore, HbUnit};
pub use explorer::{Exploration, Explorer, ExplorerConfig, Failure, Strategy, Sweep, Witness};
pub use faults::{ClusterProbe, ClusterScenario, FaultBudget};
pub use independence::StaticIndependence;
pub use scenarios::{
    DiamondScenario, DisjointClustersScenario, RunReport, Scenario, TransportWindowScenario,
    ViewChangeScenario,
};
pub use strategy::{Decider, PctDecider, PrefixDecider, RandomDecider};
