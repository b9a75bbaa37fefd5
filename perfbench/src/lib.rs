//! `perfbench`: the repository benchmark.
//!
//! Three workloads, each made of homogeneous jobs:
//!
//! * `cold_rent1k` — in-process compiles of seeded `rent_logic(1000)`
//!   designs at a fixed channel width, no cache (placer + router heavy);
//! * `minw_rent64` — in-process compiles of seeded `rent_logic(64)`
//!   designs with the minimum channel-width search (router heavy, most of
//!   it in attempts that fail);
//! * `service_mix` — an open-loop request stream to `flow-gateway`
//!   fronting one `flowd`: mostly cache hits on designs primed during
//!   set-up, plus a minority of never-seen designs (BLIF and VHDL).
//!
//! An untraced run reports the end-to-end metrics
//! ([`metrics::END_TO_END`], the same set on every workload); a traced
//! run (`--trace 1`) drives each layer through its public function from
//! this crate, records spans in memory ([`trace`]) and reports the
//! per-layer metrics ([`metrics::PER_LAYER`]). Every output is checked
//! outside the timed window ([`check`]).

pub mod check;
pub mod cold;
pub mod jobs;
pub mod metrics;
pub mod service;
pub mod stats;
pub mod sys;
pub mod trace;
