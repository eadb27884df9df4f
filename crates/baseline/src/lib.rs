//! A Druid-like baseline engine (§2, §6).
//!
//! The paper compares Pinot against Druid, "an analytical system with an
//! architecture similar to Pinot". The comparisons hinge on documented
//! differences in the *storage and execution* layers, which this baseline
//! reproduces over the same segment substrate so index structure — not
//! incidental implementation detail — drives the measured gaps:
//!
//! * Druid builds a bitmap inverted index on **every** dimension column
//!   ("In Druid, all dimension columns have an associated inverted index;
//!   as not all dimensions are used in filtering predicates, this leads to
//!   a larger on disk size for Druid over Pinot");
//! * Druid has **no sorted-column layout** and no range/vectorized fast
//!   path — filters are always evaluated via bitmap operations;
//! * Druid has **no star-tree**; every aggregation runs over raw rows;
//! * brokers fan out to all historicals holding table data (no
//!   partition-aware routing).
//!
//! Like the Pinot side of the evaluation, realtime ingestion is disabled
//! (the paper disabled it for both systems).

pub mod reference;

use pinot_common::query::{QueryRequest, QueryResponse};
use pinot_common::{PinotError, Record, Result, Schema};
use pinot_exec::segment_exec::{execute_on_segment, IntermediateResult, SegmentHandle};
use pinot_exec::{finalize, merge_intermediate};
use pinot_pql::Query;
use pinot_segment::builder::{BuilderConfig, SegmentBuilder};
use pinot_segment::ImmutableSegment;
use std::collections::HashMap;
use std::sync::Arc;

/// One simulated Druid historical node.
struct Historical {
    segments: Vec<SegmentHandle>,
}

/// The Druid-like engine: a broker over N historicals.
pub struct DruidEngine {
    historicals: Vec<Historical>,
    tables: HashMap<String, Schema>,
}

impl DruidEngine {
    pub fn new(num_historicals: usize) -> DruidEngine {
        assert!(num_historicals > 0);
        DruidEngine {
            historicals: (0..num_historicals)
                .map(|_| Historical {
                    segments: Vec::new(),
                })
                .collect(),
            tables: HashMap::new(),
        }
    }

    pub fn num_historicals(&self) -> usize {
        self.historicals.len()
    }

    /// Load a table: rows are chunked into segments of `rows_per_segment`,
    /// each indexed the Druid way (inverted bitmap index on every
    /// dimension, no sort, no star-tree), and spread round-robin over the
    /// historicals.
    pub fn load_table(
        &mut self,
        name: &str,
        schema: Schema,
        rows: Vec<Record>,
        rows_per_segment: usize,
    ) -> Result<()> {
        if self.tables.contains_key(name) {
            return Err(PinotError::Metadata(format!("table {name} already loaded")));
        }
        let all_dims: Vec<String> = schema.dimensions().map(|f| f.name.clone()).collect();
        let dim_refs: Vec<&str> = all_dims.iter().map(String::as_str).collect();

        for (seq, chunk) in rows.chunks(rows_per_segment.max(1)).enumerate() {
            let cfg =
                BuilderConfig::new(format!("{name}__{seq}"), name).with_inverted_columns(&dim_refs);
            let mut builder = SegmentBuilder::new(schema.clone(), cfg)?;
            for r in chunk {
                builder.add(r.clone())?;
            }
            let segment: Arc<ImmutableSegment> = Arc::new(builder.build()?);
            let node = seq % self.historicals.len();
            self.historicals[node]
                .segments
                .push(SegmentHandle::new(segment));
        }
        self.tables.insert(name.to_string(), schema);
        Ok(())
    }

    /// Total bytes of loaded segments — Druid's all-dimensions indexing
    /// makes this measurably larger than Pinot's for the same data, which
    /// the Figure 14 discussion calls out.
    pub fn storage_bytes(&self) -> u64 {
        self.historicals
            .iter()
            .flat_map(|h| &h.segments)
            .map(|s| s.segment.size_bytes())
            .sum()
    }

    pub fn num_segments(&self) -> usize {
        self.historicals.iter().map(|h| h.segments.len()).sum()
    }

    /// Execute a PQL query: scatter over all historicals (each processes
    /// its own segments on a worker thread, like the Druid broker →
    /// historical fan-out), gather, merge, finalize.
    pub fn execute(&self, request: &QueryRequest) -> Result<QueryResponse> {
        let started = std::time::Instant::now();
        let query = Arc::new(pinot_pql::parse(&request.pql)?);
        if !self.tables.contains_key(&query.table) {
            return Err(PinotError::Metadata(format!(
                "unknown table {:?}",
                query.table
            )));
        }

        let partials: Vec<Result<IntermediateResult>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .historicals
                .iter()
                .map(|h| {
                    let q = Arc::clone(&query);
                    scope.spawn(move || execute_historical(h, &q))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });

        let mut acc = IntermediateResult::empty_for(&query);
        let mut exceptions = Vec::new();
        for p in partials {
            match p {
                Ok(partial) => merge_intermediate(&mut acc, partial)?,
                Err(e) => exceptions.push(e.to_string()),
            }
        }
        acc.stats.num_servers_queried = self.historicals.len() as u64;
        acc.stats.num_servers_responded = self.historicals.len() as u64 - exceptions.len() as u64;
        acc.stats.time_used_ms = started.elapsed().as_millis() as u64;
        let partial = !exceptions.is_empty();
        let stats = acc.stats.clone();
        let result = finalize(acc, &query)?;
        Ok(QueryResponse {
            result,
            stats,
            partial,
            exceptions,
            profile: None,
        })
    }
}

fn execute_historical(h: &Historical, query: &Query) -> Result<IntermediateResult> {
    let mut acc = IntermediateResult::empty_for(query);
    for handle in &h.segments {
        if handle.segment.metadata().table != query.table {
            continue;
        }
        let partial = execute_on_segment(handle, query)?;
        merge_intermediate(&mut acc, partial)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinot_common::{DataType, FieldSpec, Value};

    fn schema() -> Schema {
        Schema::new(
            "t",
            vec![
                FieldSpec::dimension("country", DataType::String),
                FieldSpec::dimension("browser", DataType::String),
                FieldSpec::metric("clicks", DataType::Long),
            ],
        )
        .unwrap()
    }

    fn rows(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                Record::new(vec![
                    Value::String(format!("c{}", i % 5)),
                    Value::String(format!("b{}", i % 3)),
                    Value::Long(i as i64),
                ])
            })
            .collect()
    }

    #[test]
    fn loads_with_inverted_on_all_dimensions() {
        let mut engine = DruidEngine::new(3);
        engine.load_table("t", schema(), rows(100), 30).unwrap();
        assert_eq!(engine.num_segments(), 4); // ceil(100/30)
        for h in &engine.historicals {
            for s in &h.segments {
                let m = s.segment.metadata();
                assert!(m.column("country").unwrap().has_inverted_index);
                assert!(m.column("browser").unwrap().has_inverted_index);
                assert!(!m.column("clicks").unwrap().has_inverted_index);
                assert!(!m.column("country").unwrap().is_sorted);
                assert!(s.star_tree.is_none());
            }
        }
    }

    #[test]
    fn queries_match_expectations() {
        let mut engine = DruidEngine::new(2);
        engine.load_table("t", schema(), rows(100), 25).unwrap();
        let resp = engine
            .execute(&QueryRequest::new(
                "SELECT COUNT(*), SUM(clicks) FROM t WHERE country = 'c1'",
            ))
            .unwrap();
        match resp.result {
            pinot_common::query::QueryResult::Aggregation(aggs) => {
                assert_eq!(aggs[0].value, Value::Long(20));
                let expect: f64 = (0..100).filter(|i| i % 5 == 1).map(|i| i as f64).sum();
                assert_eq!(aggs[1].value, Value::Double(expect));
            }
            other => panic!("{other:?}"),
        }
        assert!(!resp.partial);
        assert_eq!(resp.stats.num_servers_queried, 2);
    }

    #[test]
    fn group_by_works() {
        let mut engine = DruidEngine::new(2);
        engine.load_table("t", schema(), rows(90), 30).unwrap();
        let resp = engine
            .execute(&QueryRequest::new(
                "SELECT COUNT(*) FROM t GROUP BY browser TOP 10",
            ))
            .unwrap();
        let tables = resp.result.group_by().unwrap();
        assert_eq!(tables[0].rows.len(), 3);
        for (_, v) in &tables[0].rows {
            assert_eq!(*v, Value::Long(30));
        }
    }

    #[test]
    fn unknown_table_and_duplicate_load() {
        let mut engine = DruidEngine::new(1);
        engine.load_table("t", schema(), rows(10), 5).unwrap();
        assert!(engine.load_table("t", schema(), rows(10), 5).is_err());
        assert!(engine
            .execute(&QueryRequest::new("SELECT COUNT(*) FROM nope"))
            .is_err());
    }

    #[test]
    fn storage_reflects_indexes() {
        let mut indexed = DruidEngine::new(1);
        indexed.load_table("t", schema(), rows(2000), 1000).unwrap();
        assert!(indexed.storage_bytes() > 0);
    }
}
