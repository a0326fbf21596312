//! Experiment harness utilities shared by the figure/table binaries
//! and the criterion benchmarks.

pub mod cli;
pub mod model;
pub mod ooc;
pub mod pool;
pub mod report;
pub mod table;

pub use cli::Args;
pub use model::{amdahl_speedup, paper_model_speedup};
pub use ooc::standin_problem_or_exit;
pub use pool::{available_threads, bench_pools, bench_scale, run_with_threads, thread_sweep};
pub use report::{
    completion_json, deadline_harness, harness_for_run, outcome_or_exit, write_json_report_or_exit,
    ReportError,
};
pub use table::Table;
