//! Checked metric-name registry (ISSUE 6 satellite): every metric an
//! exercised cluster actually emits must appear in DESIGN.md's metric
//! catalogue, and the Prometheus exposition must carry every one of
//! them. This keeps the catalogue honest — adding a metric without
//! documenting it fails CI.

use pinot_common::config::{StreamConfig, TableConfig};
use pinot_common::query::QueryRequest;
use pinot_common::{DataType, FieldSpec, Record, Schema, TimeUnit, Value};
use pinot_core::{ClusterConfig, PinotCluster};

const DESIGN: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"));

/// Wildcard sentinel inside an expanded pattern: matches one or more
/// characters (a tenant, a site, a table/partition suffix, ...).
const WILD: char = '\u{1}';

/// Expand one catalogue name into concrete patterns: `{a,b,c}` is an
/// alternation of literals, `{placeholder}` (no comma, or containing `…`)
/// is a wildcard, `[...]` is optional.
fn expand(pattern: &str) -> Vec<String> {
    if let Some(i) = pattern.find(['{', '[']) {
        let head = &pattern[..i];
        if pattern.as_bytes()[i] == b'{' {
            let j = i + pattern[i..].find('}').expect("unterminated { in catalogue");
            let inner = &pattern[i + 1..j];
            let options: Vec<String> = if inner.contains(',') && !inner.contains('…') {
                inner.split(',').map(|s| s.trim().to_string()).collect()
            } else {
                vec![WILD.to_string()]
            };
            expand(&pattern[j + 1..])
                .iter()
                .flat_map(|tail| {
                    options
                        .iter()
                        .map(move |o| format!("{head}{o}{tail}"))
                        .collect::<Vec<_>>()
                })
                .collect()
        } else {
            let j = i + pattern[i..].find(']').expect("unterminated [ in catalogue");
            let mut out = expand(&format!(
                "{head}{}{}",
                &pattern[i + 1..j],
                &pattern[j + 1..]
            ));
            out.extend(expand(&format!("{head}{}", &pattern[j + 1..])));
            out
        }
    } else {
        vec![pattern.to_string()]
    }
}

/// `pat` with WILD sentinels vs a concrete metric name; a wildcard eats
/// one or more characters.
fn glob_match(pat: &str, name: &str) -> bool {
    match pat.find(WILD) {
        None => pat == name,
        Some(i) => {
            name.len() > i
                && name.starts_with(&pat[..i])
                && (i + 1..=name.len())
                    .any(|cut| glob_match(&pat[i + WILD.len_utf8()..], &name[cut..]))
        }
    }
}

/// Every backtick-quoted name in the first column of DESIGN.md's metric
/// catalogue table, expanded.
fn catalogue_patterns() -> Vec<String> {
    let section = DESIGN
        .split("Metric catalogue:")
        .nth(1)
        .expect("DESIGN.md has a metric catalogue");
    let mut patterns = Vec::new();
    for line in section.lines() {
        let line = line.trim();
        if !line.starts_with("| `") {
            if patterns.is_empty() || line.starts_with('|') || line.is_empty() {
                continue;
            }
            break; // past the table
        }
        let first_cell = line.trim_start_matches('|').split('|').next().unwrap();
        let mut rest = first_cell;
        while let Some(start) = rest.find('`') {
            let tail = &rest[start + 1..];
            let end = tail.find('`').expect("unterminated backtick in catalogue");
            patterns.extend(expand(&tail[..end]));
            rest = &tail[end + 1..];
        }
    }
    assert!(
        patterns.len() > 30,
        "catalogue parse looks broken: {patterns:?}"
    );
    patterns
}

fn schema() -> Schema {
    Schema::new(
        "regevents",
        vec![
            FieldSpec::dimension("country", DataType::String),
            FieldSpec::metric("clicks", DataType::Long),
            FieldSpec::time("day", DataType::Long, TimeUnit::Days),
        ],
    )
    .unwrap()
}

fn rows(n: i64) -> Vec<Record> {
    (0..n)
        .map(|i| {
            Record::new(vec![
                Value::from(["us", "de", "jp"][(i % 3) as usize]),
                Value::Long(i),
                Value::Long(100 + i % 10),
            ])
        })
        .collect()
}

/// Exercise broker, servers, taskpool, pruning, batch kernels, and the
/// profiling plane, then demand every emitted metric is catalogued and
/// exported.
#[test]
fn every_emitted_metric_is_in_the_design_catalogue() {
    let patterns = catalogue_patterns();

    let cluster = PinotCluster::start(ClusterConfig::default().with_servers(2)).unwrap();
    cluster
        .create_table(
            TableConfig::offline("regevents")
                .with_replication(2)
                .with_bloom_filters(&["country"]),
            schema(),
        )
        .unwrap();
    for chunk in rows(300).chunks(60) {
        cluster.upload_rows("regevents", chunk.to_vec()).unwrap();
    }
    cluster.query("SELECT COUNT(*), SUM(clicks) FROM regevents WHERE country = 'us'");
    cluster.query("SELECT COUNT(*) FROM regevents GROUP BY country TOP 5");
    cluster.query("SELECT country, clicks FROM regevents WHERE day > 104 LIMIT 20");
    cluster.query("SELECT COUNT(*) FROM regevents WHERE country = 'zz'"); // prunable
    cluster.execute_profiled(&QueryRequest::new("SELECT SUM(clicks) FROM regevents"));
    cluster.query("SELECT COUNT(*) FROM no_such_table"); // failed-query counters

    // Realtime ingestion: columnar consuming segments, a sealed segment,
    // and consuming-segment cuts taken by queries — so the ingest/realtime
    // metric families are emitted and checked too.
    cluster.streams().create_topic("regstream", 1).unwrap();
    let rt_schema = Schema::new("regstream_events", schema().fields().to_vec()).unwrap();
    cluster
        .create_table(
            TableConfig::realtime(
                "regstream_events",
                StreamConfig {
                    topic: "regstream".into(),
                    flush_threshold_rows: 40,
                    flush_threshold_millis: i64::MAX / 4,
                },
            ),
            rt_schema,
        )
        .unwrap();
    for r in rows(90) {
        cluster.produce("regstream", &Value::Long(0), r).unwrap();
    }
    cluster.consume_until_idle().unwrap();
    cluster.query("SELECT COUNT(*), SUM(clicks) FROM regstream_events");

    let snap = cluster.metrics_snapshot();
    let emitted: Vec<&String> = snap
        .counters
        .keys()
        .chain(snap.gauges.keys())
        .chain(snap.histograms.keys())
        .collect();
    assert!(emitted.len() > 15, "cluster barely emitted: {emitted:?}");

    let undocumented: Vec<&&String> = emitted
        .iter()
        .filter(|name| !patterns.iter().any(|p| glob_match(p, name)))
        .collect();
    assert!(
        undocumented.is_empty(),
        "metrics missing from DESIGN.md catalogue: {undocumented:?}"
    );

    // The catalogue families this PR leans on really are present.
    for required in [
        "exec.blocks_decoded",
        "server.exec.queue_ms",
        "broker.phase.scatter_ms",
        "prune.zonemap_segments",
        "ingest.rows_per_sec",
        "ingest.backpressure_stalls",
        "realtime.chunks_sealed",
        "realtime.query_cut_rows",
    ] {
        assert!(
            patterns.iter().any(|p| glob_match(p, required)),
            "catalogue lost {required}"
        );
    }

    // Prometheus exposition covers every snapshot metric.
    let prom = cluster.obs().render_prometheus();
    let sanitize = |name: &String| {
        let mut s = String::from("pinot_");
        s.extend(
            name.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }),
        );
        s
    };
    for name in &emitted {
        assert!(
            prom.contains(&sanitize(name)),
            "{name} missing from Prometheus exposition"
        );
    }
}

#[test]
fn pattern_expansion_and_matching() {
    assert_eq!(
        expand("broker.phase.{parse,route}_ms"),
        vec!["broker.phase.parse_ms", "broker.phase.route_ms"]
    );
    let opt = expand("server.throttle.rejected[.{tenant}]");
    assert_eq!(opt.len(), 2);
    assert!(opt.iter().any(|p| p == "server.throttle.rejected"));
    assert!(glob_match(&opt[0], "server.throttle.rejected.adsTenant"));
    assert!(!glob_match(&opt[0], "server.throttle.rejected."));
    let wild = expand("server.consume.lag.{table}.p{partition}");
    assert!(glob_match(&wild[0], "server.consume.lag.events.p0"));
    assert!(!glob_match(&wild[0], "server.consume.lag.events"));
}
