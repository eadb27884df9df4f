//! The engine's one configuration value.
//!
//! Every tunable of the query and ingest paths is a field of
//! [`EngineConfig`], documented once, here. A cluster resolves the value
//! once at boot — [`EngineConfig::from_env`] reads the `PINOT_*`
//! variables, the caller may then assign fields, and the result is shared
//! by `Arc` with every broker, server and per-segment execution — so the
//! hot path reads a knob with one pointer deref and nothing re-parses the
//! environment per query. Library entry points used outside a cluster
//! (`execute_on_segment`, `evaluate_filter`) run on
//! [`EngineConfig::default`], which never looks at the environment.

use crate::{PinotError, Result};

/// Morsel sizes snap to this grid: the 1024-doc decode block of
/// `pinot-segment`'s packed vectors (`pinot-exec` asserts the two agree),
/// so a morsel never splits a decode block.
pub const MORSEL_GRID_DOCS: usize = 1024;

/// Default morsel size: 64 decode blocks. Small enough that a 4M-doc
/// segment yields ~61 morsels (good balance even with stealing), large
/// enough that per-task overhead stays ≪ 1% of a morsel's scan time.
pub const DEFAULT_MORSEL_DOCS: usize = 64 * MORSEL_GRID_DOCS;

/// Default fan-out threshold: ~2ms of estimated scan work. Below it a
/// query answers faster on the caller thread than the scheduling
/// round-trip costs.
pub const DEFAULT_FANOUT_NS: u64 = 2_000_000;

/// Round a configured morsel size down to the decode-block grid, at
/// least one block.
pub fn clamp_morsel_docs(docs: usize) -> usize {
    (docs / MORSEL_GRID_DOCS).max(1) * MORSEL_GRID_DOCS
}

/// The engine's tunables. Each field names the environment variable
/// [`EngineConfig::from_env`] reads for it; booleans take exactly `0` or
/// `1`, and a malformed value is an error, never a guess.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// `PINOT_TASKPOOL_THREADS` — worker threads of every server and
    /// broker task pool, at least 1. Default: `available_parallelism`.
    /// `1` gives one worker, which the waiting scope owner helps; task
    /// order is still unspecified, and results stay deterministic because
    /// every merge is slot-ordered, not because of the schedule.
    pub taskpool_threads: usize,
    /// `PINOT_EXEC_MORSEL_DOCS` — documents per morsel for intra-segment
    /// splitting, rounded to [`MORSEL_GRID_DOCS`]. Default
    /// [`DEFAULT_MORSEL_DOCS`]. The split is a pure function of data and
    /// this value, so it changes result bytes only through the
    /// deterministic partition, never through scheduling.
    pub morsel_docs: usize,
    /// `PINOT_EXEC_FANOUT_NS` — estimated nanoseconds of scan work below
    /// which a request runs inline on the caller thread. Default
    /// [`DEFAULT_FANOUT_NS`]. `0` sends everything to the pool; a huge
    /// value keeps everything inline. Scheduling-only: never changes
    /// result bytes.
    pub fanout_threshold_ns: u64,
    /// `PINOT_INGEST_MAX_BUFFERED_ROWS` — backpressure cap: when the rows
    /// buffered across one server's consuming segments reach it, fetching
    /// pauses (sealing still runs, so the backlog drains). Default 4M.
    pub ingest_max_buffered_rows: usize,
    /// `PINOT_EXEC_HEDGE` — hedged scatter: re-issue a straggling
    /// server's slice to another replica. Default on.
    pub hedge: bool,
}

/// `available_parallelism`, asked once: on Linux it reads cgroup files,
/// and `EngineConfig::default()` backs every `ExecOptions::default()`.
fn host_parallelism() -> usize {
    static N: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *N.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

impl Default for EngineConfig {
    /// The documented defaults; the environment is not consulted.
    fn default() -> EngineConfig {
        EngineConfig {
            taskpool_threads: host_parallelism(),
            morsel_docs: DEFAULT_MORSEL_DOCS,
            fanout_threshold_ns: DEFAULT_FANOUT_NS,
            ingest_max_buffered_rows: 4_000_000,
            hedge: true,
        }
    }
}

impl EngineConfig {
    /// Resolve from the process environment — the only place the engine
    /// reads it.
    pub fn from_env() -> Result<EngineConfig> {
        EngineConfig::from_lookup(|name| std::env::var(name).ok())
    }

    /// Resolve from any name → value source: an unset name keeps its
    /// documented default, a malformed value is an error naming the
    /// variable and the value.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<EngineConfig> {
        fn knob<T>(
            lookup: &dyn Fn(&str) -> Option<String>,
            name: &str,
            expected: &str,
            parse: impl Fn(&str) -> Option<T>,
            default: T,
        ) -> Result<T> {
            match lookup(name) {
                None => Ok(default),
                Some(raw) => parse(&raw).ok_or_else(|| {
                    PinotError::Metadata(format!("{name}={raw:?}: expected {expected}"))
                }),
            }
        }
        fn flag(s: &str) -> Option<bool> {
            match s {
                "0" => Some(false),
                "1" => Some(true),
                _ => None,
            }
        }
        fn number<T: std::str::FromStr>(s: &str) -> Option<T> {
            s.trim().parse().ok()
        }
        let env = &lookup;
        let d = EngineConfig::default();
        Ok(EngineConfig {
            taskpool_threads: knob(
                env,
                "PINOT_TASKPOOL_THREADS",
                "a thread count",
                number,
                d.taskpool_threads,
            )?
            .max(1),
            morsel_docs: clamp_morsel_docs(knob(
                env,
                "PINOT_EXEC_MORSEL_DOCS",
                "a document count",
                number,
                d.morsel_docs,
            )?),
            fanout_threshold_ns: knob(
                env,
                "PINOT_EXEC_FANOUT_NS",
                "a nanosecond count",
                number,
                d.fanout_threshold_ns,
            )?,
            ingest_max_buffered_rows: knob(
                env,
                "PINOT_INGEST_MAX_BUFFERED_ROWS",
                "a row count",
                number,
                d.ingest_max_buffered_rows,
            )?,
            hedge: knob(env, "PINOT_EXEC_HEDGE", "0 or 1", flag, d.hedge)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One row per knob: its name, a valid raw value, what that value
    /// must do to the defaults, and a malformed raw value.
    type Knob = (
        &'static str,
        &'static str,
        fn(&mut EngineConfig),
        &'static str,
    );
    const KNOBS: [Knob; 5] = [
        (
            "PINOT_TASKPOOL_THREADS",
            "0",
            |c| c.taskpool_threads = 1,
            "abc",
        ),
        (
            "PINOT_EXEC_MORSEL_DOCS",
            "5000",
            |c| c.morsel_docs = 4 * MORSEL_GRID_DOCS,
            "64k",
        ),
        (
            "PINOT_EXEC_FANOUT_NS",
            " 0 ",
            |c| c.fanout_threshold_ns = 0,
            "-1",
        ),
        (
            "PINOT_INGEST_MAX_BUFFERED_ROWS",
            "250000",
            |c| c.ingest_max_buffered_rows = 250_000,
            "1e6",
        ),
        ("PINOT_EXEC_HEDGE", "0", |c| c.hedge = false, ""),
    ];

    #[test]
    fn unset_names_keep_the_documented_defaults() {
        let c = EngineConfig::from_lookup(|_| None).unwrap();
        assert_eq!(c, EngineConfig::default());
        assert!(c.taskpool_threads >= 1);
        assert!(c.hedge);
        assert_eq!(c.morsel_docs, 65_536);
        assert_eq!(c.fanout_threshold_ns, 2_000_000);
        assert_eq!(c.ingest_max_buffered_rows, 4_000_000);
    }

    #[test]
    fn each_knob_parses_alone_and_rejects_malformed_values() {
        for (name, valid, apply, malformed) in KNOBS {
            let only = |raw: &'static str| move |n: &str| (n == name).then(|| raw.to_string());

            // The named field takes the value; no other field moves.
            let mut expected = EngineConfig::default();
            apply(&mut expected);
            assert_ne!(
                expected,
                EngineConfig::default(),
                "{name}: row tests nothing"
            );
            assert_eq!(
                EngineConfig::from_lookup(only(valid)).unwrap(),
                expected,
                "{name}={valid:?}"
            );

            let err = EngineConfig::from_lookup(only(malformed)).unwrap_err();
            let msg = err.to_string();
            assert!(
                matches!(err, PinotError::Metadata(_))
                    && msg.contains(name)
                    && msg.contains(&format!("{malformed:?}")),
                "{name}={malformed:?} gave {msg}"
            );
        }
    }
}
