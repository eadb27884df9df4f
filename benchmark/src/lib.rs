//! The repo's one end-to-end benchmark. See `README.md` beside this
//! package and `BENCHMARK.json` at the root of the repository.

pub mod driver;
pub mod oracle;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
