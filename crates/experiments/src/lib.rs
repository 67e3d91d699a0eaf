//! # wanify-experiments
//!
//! The WANify paper's evaluation as one grid. [`common`] runs one cell —
//! a job under a scheduler on an [`common::Arm`] (belief + transfer
//! layer) — and [`table`] holds what it measured; a query-grid artifact
//! (Table 4, Figs. 4–8, 10, §5.8.3) is an arm list plus a header, and the
//! measurement-shaped ones (Tables 1–2, Figs. 2, 9, 11, the model and
//! fleet studies) keep their own bodies and share the renderer. Every
//! module regenerates its artifact — same rows, same series — on the
//! simulated substrate. The `repro` binary dispatches them by id:
//!
//! ```text
//! cargo run --release -p wanify-experiments --bin repro -- all
//! cargo run --release -p wanify-experiments --bin repro -- fig5
//! ```
//!
//! | id | paper artifact |
//! |----|----------------|
//! | `table1` | static vs runtime bandwidth gaps |
//! | `table2` | monitoring-cost savings |
//! | `fig2` | single/uniform/heterogeneous connection bandwidths |
//! | `table4` | Tetrium/Kimchi gains from runtime bandwidth |
//! | `fig4` | ML quantization variants |
//! | `fig5` | parallel-transfer approaches on TeraSort |
//! | `fig6` | WordCount intermediate-size sweep |
//! | `fig7` | end-to-end TPC-DS with/without WANify |
//! | `fig8` | ablation + prediction-error injection |
//! | `fig9` | AIMD tracking of dynamics |
//! | `fig10` | skewed-input handling |
//! | `fig11` | prediction accuracy across cluster shapes |
//! | `sec583` | heterogeneous-VM benefits |
//! | `model` | prediction-model training quality |
//! | `fleet` | beyond the paper: belief provenances under multi-tenant contention |
//! | `sharded` | beyond the paper: shard-count sweep of the sharded multi-sim fleet |
//! | `gateway` | beyond the paper: serving-gateway goodput across an offered-load sweep |
//! | `knee` | beyond the paper: closed-loop throughput knee against the tenant count |
//!
//! [`registry::ENTRIES`] is the single source of truth for this table;
//! `REPRO.md` at the repository root pins `repro --quick all`.

#![warn(unreachable_pub)]

pub mod common;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fleet;
pub mod gateway;
pub mod knee;
pub mod model;
pub mod registry;
pub mod sec583;
pub mod sharded;
pub mod table;
pub mod table1;
pub mod table2;
pub mod table4;

pub use common::Effort;
