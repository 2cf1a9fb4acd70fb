//! Discrete-event simulation kernel for the SPHINX grid scheduling middleware.
//!
//! The paper evaluates SPHINX on Grid3, a live production grid. This crate is
//! the foundation of the simulated replacement: a deterministic, seeded
//! discrete-event engine plus the statistics machinery every experiment needs.
//!
//! Design points:
//!
//! * **Determinism.** Events are ordered by `(time, sequence)`, so two events
//!   scheduled for the same instant fire in insertion order. All randomness
//!   flows through [`SimRng`] streams derived from a single experiment seed,
//!   so a run is reproducible bit-for-bit.
//! * **Composability.** The engine is generic over the event payload; the
//!   grid substrate, monitoring service and SPHINX server each define their
//!   own event enums and share one queue through a top-level enum.

pub mod chunks;
pub mod events;
pub mod rng;
pub mod stats;
pub mod time;

pub use chunks::Chunks;
pub use events::{EventQueue, ScheduledEvent};
pub use rng::SimRng;
pub use stats::{Accumulator, SampleSet, TimeWeighted};
pub use time::{Duration, SimTime};
