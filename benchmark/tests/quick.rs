//! The harness end to end at `--quick` scale: every workload in both
//! modes produces every metric of the contract and verifies its answers,
//! and a seed fixes the answers and the exact counts.

use pinot_benchmark::report::{Report, END_TO_END, PER_LAYER};
use pinot_benchmark::run::{run, Options};
use pinot_benchmark::workloads::Workload;

fn quick(workload: Workload, seed: u64, trace: bool) -> Report {
    run(&Options {
        workload,
        seed,
        seconds: 0.6,
        trace,
        quick: true,
        trace_file: None,
        exe: None,
    })
    .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()))
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .contract_metrics()
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .value
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_is_correct() {
    for workload in Workload::ALL {
        let report = quick(workload, 7, false);
        assert_eq!(report.failed, 0, "{}", workload.name());
        assert!(report.attempted > 0);
        let metrics = report.contract_metrics();
        assert_eq!(metrics.len(), END_TO_END.len());
        for m in &metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                workload.name(),
                m.name,
                m.value
            );
        }
        // The result line parses and carries exactly the contract's keys.
        let line = pinot_common::json::Json::parse(&report.result_line()).unwrap();
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(line.get(key).is_some(), "{key}");
        }
        assert_eq!(line.get("correct").and_then(|c| c.as_bool()), Some(true));
    }
}

#[test]
fn traced_runs_reconcile_and_name_every_layer() {
    for workload in Workload::ALL {
        let report = quick(workload, 7, true);
        assert_eq!(report.failed, 0, "{}", workload.name());
        assert_eq!(report.contract_metrics().len(), PER_LAYER.len());
        // Nothing is measured that the contract does not list.
        for m in &report.metrics {
            assert!(
                PER_LAYER.iter().any(|(name, ..)| *name == m.name),
                "{} is not in PER_LAYER",
                m.name
            );
        }
        assert!(value(&report, "bench.samples") > 0.0);
        assert!(value(&report, "bench.spans") > 0.0);
        // self + server = wall by construction, so the covered share is a share.
        let cover = value(&report, "bench.server_cover_frac");
        assert!((0.0..=1.0).contains(&cover), "{cover}");
        assert_eq!(value(&report, "server.errors_per_kcall"), 0.0);
        match workload {
            Workload::AnomalyStartree => {
                assert_eq!(value(&report, "exec.plan_mix.star_tree"), 1.0);
                assert!(value(&report, "startree.build_rows_per_s") > 0.0);
            }
            Workload::HybridIngest => {
                assert!(value(&report, "server.consume_tick_us_p50") > 0.0);
                assert!(value(&report, "server.seals") > 0.0);
            }
            _ => assert_eq!(value(&report, "exec.plan_mix.raw"), 1.0),
        }
    }
}

/// `--seed` is the only source of randomness: two runs of one seed give the
/// same answers (digest) and the same exact counts; another seed does not.
#[test]
fn a_seed_fixes_answers_and_exact_counts() {
    const EXACT: [&str; 5] = [
        "exec.docs_scanned_per_query",
        "exec.entries_in_filter_per_query",
        "exec.entries_post_filter_per_query",
        "broker.segments_routed_per_query",
        "segment.bytes_per_row",
    ];
    for workload in [
        Workload::WvmpPoint,
        Workload::AnomalyScan,
        Workload::AnomalyStartree,
    ] {
        let (a, b) = (quick(workload, 11, true), quick(workload, 11, true));
        assert_eq!(a.record["result_digest"], b.record["result_digest"]);
        for name in EXACT {
            assert_eq!(
                value(&a, name),
                value(&b, name),
                "{} {name}",
                workload.name()
            );
        }
        let (c, d) = (quick(workload, 11, false), quick(workload, 11, false));
        assert_eq!(
            value(&c, "stored_bytes_per_row"),
            value(&d, "stored_bytes_per_row")
        );
        assert_eq!(a.record["result_digest"], c.record["result_digest"]);
        let other = quick(workload, 12, false);
        assert_ne!(a.record["result_digest"], other.record["result_digest"]);
    }
}
