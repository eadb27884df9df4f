//! Metric tables (the code's copy of `BENCHMARK.json`), the run record,
//! output files, and the `--compare` gate.

use crate::stats::{median, spread};
use pinot_common::json::Json;
use pinot_common::{PinotError, Result};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        lower_is_better: lower,
        bound,
    }
}

/// What a user of the system sees. Every workload reports every one; the
/// README says what each means on each workload.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", true, 0.25),
    e2e("query_p50_ms", "ms", true, 0.25),
    e2e("query_tail_ms", "ms", true, 0.25),
    e2e("throughput_qps", "1/s", false, 0.25),
    e2e("cpu_ms_per_query", "ms", true, 0.25),
    e2e("peak_rss_mb", "MB", true, 0.25),
    e2e("stored_bytes_per_row", "B", true, 0.02),
    e2e("freshness_p50_ms", "ms", true, 0.25),
    e2e("freshness_tail_ms", "ms", true, 0.25),
    e2e("catchup_rows_per_s", "1/s", false, 0.25),
];

/// Single-layer metrics of the traced run: (name, unit, better). No bound:
/// they explain an end-to-end change, they do not gate one.
pub const PER_LAYER: [(&str, &str, &str); 63] = [
    ("pql.parse_us_p50", "us", "lower"),
    ("broker.self_us_p50", "us", "lower"),
    ("broker.self_us_p99", "us", "lower"),
    ("broker.servers_per_query", "count", "lower"),
    ("broker.segments_routed_per_query", "count", "lower"),
    ("broker.segments_pruned_frac", "ratio", "higher"),
    ("broker.hedges_per_kquery", "1/k", "lower"),
    ("broker.hedge_won_frac", "ratio", "higher"),
    ("broker.cache_hit_frac", "ratio", "higher"),
    ("broker.shed_frac", "ratio", "lower"),
    ("server.execute_us_p50", "us", "lower"),
    ("server.execute_us_p99", "us", "lower"),
    ("server.critical_us_p50", "us", "lower"),
    ("server.skew_ratio_p50", "ratio", "lower"),
    ("server.overhead_us_p50", "us", "lower"),
    ("server.errors_per_kcall", "1/k", "lower"),
    ("server.consume_tick_us_p50", "us", "lower"),
    ("server.consume_tick_us_p99", "us", "lower"),
    ("server.rows_per_tick_p50", "count", "higher"),
    ("server.tick_busy_frac", "ratio", "lower"),
    ("server.seals", "count", "higher"),
    ("server.seal_tick_ms_p50", "ms", "lower"),
    ("server.consume_lag_rows_max", "count", "lower"),
    ("exec.segment_us_p50", "us", "lower"),
    ("exec.segment_us_p99", "us", "lower"),
    ("exec.plan_us_p50", "us", "lower"),
    ("exec.filter_us_p50", "us", "lower"),
    ("exec.filter_share", "ratio", "lower"),
    ("exec.merge_us_p50", "us", "lower"),
    ("exec.docs_scanned_per_query", "count", "lower"),
    ("exec.entries_in_filter_per_query", "count", "lower"),
    ("exec.entries_post_filter_per_query", "count", "lower"),
    ("exec.ns_per_entry", "ns", "lower"),
    ("exec.plan_mix.metadata_only", "ratio", "higher"),
    ("exec.plan_mix.star_tree", "ratio", "higher"),
    ("exec.plan_mix.raw", "ratio", "lower"),
    ("startree.build_rows_per_s", "1/s", "higher"),
    ("startree.build_rss_bytes_per_row", "B", "lower"),
    ("startree.query_us_p50", "us", "lower"),
    ("startree.preagg_docs_per_query", "count", "lower"),
    ("startree.raw_equiv_ratio", "ratio", "lower"),
    ("segment.build_rows_per_s", "1/s", "higher"),
    ("segment.serialize_mb_per_s", "MB/s", "higher"),
    ("segment.deserialize_mb_per_s", "MB/s", "higher"),
    ("segment.bytes_per_row", "B", "lower"),
    ("segment.append_rows_per_s", "1/s", "higher"),
    ("segment.cut_us_p50", "us", "lower"),
    ("segment.seal_rows_per_s", "1/s", "higher"),
    ("stream.produce_rows_per_s", "1/s", "higher"),
    ("stream.fetch_rows_per_s", "1/s", "higher"),
    ("taskpool.tasks_per_query", "count", "lower"),
    ("taskpool.stolen_frac", "ratio", "lower"),
    ("core.upload_rows_per_s", "1/s", "higher"),
    ("ingest.freshness_p50_ms", "ms", "lower"),
    ("ingest.freshness_p99_ms", "ms", "lower"),
    ("ingest.freshness_p999_ms", "ms", "lower"),
    ("query.traced_p50_ms", "ms", "lower"),
    ("query.traced_tail_ms", "ms", "lower"),
    ("bench.server_cover_frac", "ratio", "higher"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
    ("bench.sched_lag_p99_ms", "ms", "lower"),
    ("bench.samples", "count", "higher"),
    ("bench.spans", "count", "higher"),
];

/// The outcome of one run of one workload.
pub struct Report {
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Everything needed to repeat or interpret the run.
    pub record: BTreeMap<String, Json>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Exactly the metrics the contract lists for this mode, in its order;
    /// a per-layer metric that does not apply to the workload reads 0.
    pub fn contract_metrics(&self) -> Vec<Metric> {
        let find = |name: &str| self.metrics.iter().find(|m| m.name == name);
        if self.trace {
            PER_LAYER
                .iter()
                .map(|(name, unit, _)| Metric::new(name, find(name).map_or(0.0, |m| m.value), unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|e| {
                    let m = find(e.name).unwrap_or_else(|| panic!("{} was not measured", e.name));
                    Metric::new(e.name, m.value, e.unit)
                })
                .collect()
        }
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.contract_metrics()
                .into_iter()
                .map(|m| {
                    let entry =
                        Json::obj(vec![("value", Json::Num(m.value)), ("unit", m.unit.into())]);
                    (m.name, entry)
                })
                .collect(),
        )
    }

    /// The last line of standard output the benchmark contract asks for.
    pub fn result_line(&self) -> String {
        Json::obj(vec![
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", self.metrics_json()),
        ])
        .emit()
    }

    /// `name value unit`, one metric per line.
    pub fn print_metrics(&self) {
        for m in self.contract_metrics() {
            println!("{} {} {}", m.name, m.value, m.unit);
        }
    }

    /// The full record: result line fields plus how the run was made.
    pub fn record_json(&self) -> Json {
        let mut all = self.record.clone();
        all.insert("trace".into(), self.trace.into());
        all.insert("correct".into(), self.correct().into());
        all.insert("attempted".into(), self.attempted.into());
        all.insert("failed".into(), self.failed.into());
        all.insert("metrics".into(), self.metrics_json());
        Json::Obj(all)
    }
}

/// One field of `/proc/self/status` in kB (`VmRSS:`, `VmHWM:`).
pub fn rss_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and on what the run was made: git revision, cores, compiler and
/// every `PINOT_*` knob in the environment.
pub fn host_record() -> BTreeMap<String, Json> {
    let mut r = BTreeMap::new();
    let dir = env!("CARGO_MANIFEST_DIR");
    r.insert(
        "git_rev".into(),
        command_line("git", &["-C", dir, "rev-parse", "HEAD"]).into(),
    );
    r.insert("rustc".into(), command_line("rustc", &["--version"]).into());
    r.insert("host_cores".into(), host_cores().into());
    let knobs: Vec<(String, Json)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("PINOT_"))
        .map(|(k, v)| (k, Json::from(v)))
        .collect();
    r.insert("pinot_env".into(), Json::Obj(knobs.into_iter().collect()));
    r
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `benchmark/out/`, beside the sources the binary was built from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn io_err(path: &Path, e: std::io::Error) -> PinotError {
    PinotError::Io(format!("{}: {e}", path.display()))
}

pub fn append_line(path: &Path, line: &str) -> Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| io_err(path, e))?;
    writeln!(f, "{line}").map_err(|e| io_err(path, e))
}

/// Write `out/<workload>[.layers].json`, append the same record to
/// `out/history.jsonl` and to `extra` when given.
pub fn persist(report: &Report, workload: &str, extra: Option<&Path>) -> Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
    let line = report.record_json().emit();
    let suffix = if report.trace {
        ".layers.json"
    } else {
        ".json"
    };
    let latest = dir.join(format!("{workload}{suffix}"));
    std::fs::write(&latest, format!("{line}\n")).map_err(|e| io_err(&latest, e))?;
    append_line(&dir.join("history.jsonl"), &line)?;
    if let Some(extra) = extra {
        append_line(extra, &line)?;
    }
    Ok(())
}

// ---- compare ----

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// Judge one metric on one workload. `worse_by` is the share of the base
/// median by which the new median is worse (negative when it is better).
pub fn judge(spec: &EndToEnd, base: &[f64], new: &[f64]) -> (Verdict, f64) {
    let (mb, mn) = (median(base), median(new));
    let toward_worse = if spec.lower_is_better {
        mn - mb
    } else {
        mb - mn
    };
    let worse_by = toward_worse / mb.abs().max(f64::MIN_POSITIVE);
    let noisy = [base, new]
        .iter()
        .any(|side| spread(side).is_some_and(|s| s > spec.bound));
    let verdict = if noisy {
        Verdict::Unresolved
    } else if worse_by > spec.bound {
        Verdict::Worse
    } else if worse_by < -spec.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, worse_by)
}

/// End-to-end values per workload per metric, and failures per workload,
/// from a file of run records (one JSON object per line; traced runs and
/// quick runs are skipped: neither is for comparison).
pub struct ResultSet {
    pub values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    pub failed: BTreeMap<String, (u64, u64)>,
}

pub fn parse_result_set(text: &str) -> Result<ResultSet> {
    let mut set = ResultSet {
        values: BTreeMap::new(),
        failed: BTreeMap::new(),
    };
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let j = Json::parse(line)?;
        let flag = |k: &str| j.get(k).and_then(Json::as_bool).unwrap_or(false);
        if flag("trace") || flag("quick") {
            continue;
        }
        let workload = j
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| PinotError::Metadata("run record without a workload".into()))?;
        let count = |k: &str| j.get(k).and_then(Json::as_i64).unwrap_or(0).max(0) as u64;
        let f = set.failed.entry(workload.to_string()).or_default();
        f.0 += count("failed");
        f.1 += count("attempted");
        let per_metric = set.values.entry(workload.to_string()).or_default();
        for spec in &END_TO_END {
            if let Some(v) = j
                .get("metrics")
                .and_then(|m| m.get(spec.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
            {
                per_metric.entry(spec.name.to_string()).or_default().push(v);
            }
        }
    }
    Ok(set)
}

/// Print one row per workload × end-to-end metric and return whether the
/// new side passes: nothing `worse`, no rise in the failed share.
pub fn compare(base: &ResultSet, new: &ResultSet) -> bool {
    let mut pass = true;
    println!(
        "{:<17} {:<21} {:>12} {:>12} {:>8} {:>7} {:>7} {:>7}  verdict",
        "workload", "metric", "base_median", "new_median", "new/base", "bound", "spr_b", "spr_n"
    );
    for (workload, metrics) in &base.values {
        let Some(new_metrics) = new.values.get(workload) else {
            println!("{workload:<17} missing on the new side");
            pass = false;
            continue;
        };
        for spec in &END_TO_END {
            let (Some(b), Some(n)) = (metrics.get(spec.name), new_metrics.get(spec.name)) else {
                continue;
            };
            let (verdict, _) = judge(spec, b, n);
            pass &= verdict != Verdict::Worse;
            let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "{:<17} {:<21} {:>12.4} {:>12.4} {:>8.4} {:>6.1}% {:>7} {:>7}  {}",
                workload,
                spec.name,
                median(b),
                median(n),
                median(n) / median(b),
                spec.bound * 100.0,
                pct(spread(b)),
                pct(spread(n)),
                format!("{verdict:?}").to_lowercase(),
            );
        }
        let frac = |(f, a): (u64, u64)| f as f64 / a.max(1) as f64;
        let (fb, fn_) = (
            base.failed.get(workload).copied().unwrap_or_default(),
            new.failed.get(workload).copied().unwrap_or_default(),
        );
        let rose = frac(fn_) > frac(fb);
        pass &= !rose;
        println!(
            "{:<17} {:<21} {:>12} {:>12}  failed/attempted {}",
            workload,
            "failed_frac",
            format!("{}/{}", fb.0, fb.1),
            format!("{}/{}", fn_.0, fn_.1),
            if rose { "ROSE" } else { "ok" },
        );
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, p50: f64, qps: f64, failed: u64) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"trace\":false,\"attempted\":1000,\"failed\":{failed},\
             \"metrics\":{{\"query_p50_ms\":{{\"value\":{p50},\"unit\":\"ms\"}},\
             \"throughput_qps\":{{\"value\":{qps},\"unit\":\"1/s\"}}}}}}"
        )
    }

    fn set(lines: &[String]) -> ResultSet {
        parse_result_set(&lines.join("\n")).unwrap()
    }

    #[test]
    fn a_slowed_result_fails_the_gate() {
        let base = set(&[
            record("wvmp_point", 1.00, 3000.0, 0),
            record("wvmp_point", 1.01, 3010.0, 0),
            record("wvmp_point", 0.99, 2990.0, 0),
            record("wvmp_point", 1.00, 3005.0, 0),
        ]);
        let same = set(&[
            record("wvmp_point", 1.02, 2980.0, 0),
            record("wvmp_point", 1.01, 3000.0, 0),
        ]);
        assert!(compare(&base, &same));
        // 40% slower at the median: beyond the bound.
        let slowed = set(&[
            record("wvmp_point", 1.40, 2100.0, 0),
            record("wvmp_point", 1.41, 2110.0, 0),
        ]);
        assert!(!compare(&base, &slowed));
        // Same speed, but an operation failed: also rejected.
        let failing = set(&[record("wvmp_point", 1.00, 3000.0, 1)]);
        assert!(!compare(&base, &failing));
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = &e2e("latency_ms", "ms", true, 0.10);
        let higher = &e2e("rate", "1/s", false, 0.10);
        assert_eq!(judge(lower, &[1.0], &[1.2]).0, Verdict::Worse);
        assert_eq!(judge(lower, &[1.0], &[0.8]).0, Verdict::Better);
        assert_eq!(judge(lower, &[1.0], &[1.05]).0, Verdict::Same);
        assert_eq!(judge(higher, &[100.0], &[80.0]).0, Verdict::Worse);
        assert_eq!(judge(higher, &[100.0], &[120.0]).0, Verdict::Better);
        // A side whose own runs spread wider than the bound settles nothing.
        let noisy = [1.0, 1.4, 0.7, 1.3, 0.8];
        assert_eq!(judge(lower, &noisy, &[1.5, 1.5]).0, Verdict::Unresolved);
        let (_, by) = judge(lower, &[2.0], &[2.5]);
        assert!((by - 0.25).abs() < 1e-12);
    }

    #[test]
    fn traced_and_quick_records_are_not_compared() {
        let mut lines = vec![record("wvmp_point", 1.0, 3000.0, 0)];
        lines.push(lines[0].replace("\"trace\":false", "\"trace\":true"));
        lines.push(lines[0].replace("\"trace\":false", "\"trace\":false,\"quick\":true"));
        let s = set(&lines);
        assert_eq!(s.values["wvmp_point"]["query_p50_ms"].len(), 1);
    }

    /// `BENCHMARK.json` at the root is the contract; the tables above are
    /// what the program prints. They must say the same thing.
    #[test]
    fn tables_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let j = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let s = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();
        let e2e = j.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(s(got, "name"), want.name);
            assert_eq!(s(got, "unit"), want.unit);
            let better = if want.lower_is_better {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(s(got, "better"), better, "{}", want.name);
            assert_eq!(got.get("bound").and_then(Json::as_f64), Some(want.bound));
        }
        let layers = j.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, (name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(&s(got, "name"), name);
            assert_eq!(&s(got, "unit"), unit);
            assert_eq!(&s(got, "better"), better);
        }
        let workloads: Vec<String> = j
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| s(w, "name"))
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }
}
