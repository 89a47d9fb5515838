//! The execution engine: how many workers a statement gets, the one way it
//! fans work out over them, and the long-lived threads a server keeps.
//!
//! The paper runs OVERWRITE and COMPACT as MapReduce jobs whose map-task
//! count the cluster decides, not the table (§III-C, §IV). Here:
//!
//! * [`degree`] — the degree granted to the statement on this thread: all
//!   cores for a session outside a server, and what the [`ServicePool`]
//!   grants from its load for one inside (set by [`with_degree`]);
//! * [`ordered_map`] — the one parallel primitive: morsels over at most
//!   N workers, the calling thread one of them (N − 1 scoped threads are
//!   spawned), outputs consumed on the caller in morsel order with at
//!   most 2N morsels ahead, the first error in morsel order wins, a panic
//!   becomes `Error::Internal`, one worker runs inline. UNION READ calls
//!   it at the [`read_degree`]: the granted degree, capped at the cores
//!   no other [`InFlight`] statement holds;
//! * [`parallel_map_fallible`] — the same with every output collected and
//!   no bound on how far ahead a split starts. The DualTable rewrite
//!   fan-out (OVERWRITE, COMPACT) calls it with the granted degree;
//! * [`ServicePool`] — N long-lived workers behind a bounded dispatch
//!   queue with non-blocking admission, the execution substrate of the
//!   `dualtabled` server and the one place the degree is granted. Its
//!   idle lane runs one [`IdleJob`], `dualtabled`'s compaction tick,
//!   when no statement is queued or once statements have put it off for
//!   100 ms;
//! * [`run_map_reduce`] with [`JobCounters`] — a map, hash-partitioned
//!   shuffle, sort and reduce over the same primitive, kept for the
//!   benchmark ladder's MapReduce rung.

mod counters;
mod job;
mod service;

pub use counters::JobCounters;
pub use job::{
    cores, degree, ordered_map, parallel_map_fallible, read_degree, run_map_reduce, with_degree,
    InFlight, JobConfig,
};
pub use service::{IdleJob, ServiceJob, ServicePool, SubmitError};
