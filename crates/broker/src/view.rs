//! The broker's table metadata (§4.4): decoded when the cluster state
//! changes, then read by every query through one `Arc`.
//!
//! A [`Snapshot`] holds one [`TableView`] per physical table and answers
//! the logical → physical resolution. It is valid while two counters are
//! unchanged from when it was built: the metastore's generation (configs,
//! schemas, segment metadata, ideal states) and the broker's view epoch
//! (external-view changes). Both are read *before* the store and the
//! view, so a snapshot never claims more than it read. [`Views`] holds
//! the current snapshot and rebuilds it when either counter has moved.

use crate::routing::{self, RoutingTable, SegmentReplicas};
use parking_lot::{Mutex, RwLock};
use pinot_cluster::ClusterManager;
use pinot_common::config::{RoutingStrategy, TableConfig};
use pinot_common::ids::SegmentName;
use pinot_common::json::Json;
use pinot_common::{DataType, PinotError, Result, Schema, Value};
use pinot_exec::{ColumnRange, ZoneMapStats};
use pinot_obs::Obs;
use rand::rngs::StdRng;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The (metastore generation, view epoch) a snapshot was built at.
type Stamp = (u64, u64);

/// The current snapshot, and the view epoch that says, with the metastore
/// generation, whether it is still valid.
pub(crate) struct Views {
    snapshot: RwLock<Arc<Snapshot>>,
    /// External-view changes seen so far.
    epoch: Arc<AtomicU64>,
}

impl Views {
    /// Subscribe to `cluster`'s external-view changes. The callback runs
    /// under the cluster's write lock, so it takes no lock of its own; its
    /// `Release` pairs with the `Acquire` in `stamp`.
    pub fn new(cluster: &ClusterManager) -> Views {
        let epoch = Arc::new(AtomicU64::new(0));
        let bump = Arc::clone(&epoch);
        cluster.subscribe_view(move |_| {
            bump.fetch_add(1, Ordering::Release);
        });
        Views {
            snapshot: RwLock::new(Arc::new(Snapshot::empty())),
            epoch,
        }
    }

    /// The current snapshot. A caller that finds either counter moved
    /// since it was built rebuilds it once (counted as
    /// `broker.routing.refresh`), under the write lock, so concurrent
    /// callers wait for that one rebuild instead of each running their own.
    pub fn current(
        &self,
        cluster: &ClusterManager,
        rng: &Mutex<StdRng>,
        obs: &Obs,
    ) -> Arc<Snapshot> {
        let stamp = self.stamp(cluster);
        {
            let current = self.snapshot.read();
            if current.stamp == stamp {
                return Arc::clone(&current);
            }
        }
        let mut current = self.snapshot.write();
        let stamp = self.stamp(cluster);
        if current.stamp != stamp {
            obs.metrics.counter_add("broker.routing.refresh", 1);
            *current = Arc::new(Snapshot::build(cluster, stamp, &current, &mut rng.lock()));
        }
        Arc::clone(&current)
    }

    fn stamp(&self, cluster: &ClusterManager) -> Stamp {
        (
            cluster.metastore().generation(),
            self.epoch.load(Ordering::Acquire),
        )
    }
}

/// Every table's view, valid at one [`Stamp`].
pub(crate) struct Snapshot {
    stamp: Stamp,
    /// Physical table name → its view.
    pub tables: HashMap<String, Arc<TableView>>,
    /// Any name a query may use → the physical views behind it: a
    /// qualified name maps to its one table, a logical name to its
    /// OFFLINE view, REALTIME view, or both (hybrid), in that order.
    resolve: HashMap<String, Vec<Arc<TableView>>>,
}

/// One physical table, decoded once.
pub(crate) struct TableView {
    pub name: String,
    pub config: TableConfig,
    pub time_column: Option<String>,
    /// The largest time value any of the table's segments covers. As the
    /// OFFLINE side of a hybrid table this is the time boundary (§3.3.3,
    /// Fig 6): offline is authoritative strictly before it, realtime at
    /// or after it. Pinot uses `maxOfflineTime - 1 unit` when offline
    /// segments end mid-window, rounded to the table's push granularity;
    /// this reproduction keeps the simple rule, boundary = max offline
    /// time, so offline serves `time < boundary` and realtime
    /// `time >= boundary`.
    pub max_time: Option<i64>,
    /// The routing tables one is picked from per query.
    pub routing: Vec<RoutingTable>,
    /// The segment → replicas view the routing tables were generated
    /// from; replica failover and hedging consult it.
    pub replicas: Arc<SegmentReplicas>,
    /// For partitioned tables: partition id → (segment → replicas).
    pub partitions: Option<PartitionIndex>,
    /// Every segment with readable metadata.
    pub segments: HashMap<String, Arc<SegmentEntry>>,
}

pub(crate) struct PartitionIndex {
    pub column: String,
    pub num_partitions: u32,
    pub by_partition: HashMap<u32, SegmentReplicas>,
}

/// One segment's metadata node, decoded.
pub(crate) struct SegmentEntry {
    /// The node text this entry was decoded from. A rebuild that reads the
    /// same text reuses the entry; a node version alone would not do,
    /// because a recreated table's nodes start over at version 0.
    text: String,
    /// Zone maps the controller published (none for consuming segments).
    pub zone_maps: ZoneMapStats,
    pub num_docs: u64,
    /// Realtime names encode it; offline metadata may record it.
    pub partition: Option<u32>,
    pub max_time: Option<i64>,
}

impl Snapshot {
    /// A snapshot no counter pair matches, so the first query builds.
    fn empty() -> Snapshot {
        Snapshot {
            stamp: (u64::MAX, u64::MAX),
            tables: HashMap::new(),
            resolve: HashMap::new(),
        }
    }

    /// Read every table the cluster has an ideal state for. `stamp` was
    /// read before this call. Segment entries and routing tables of
    /// `prev` are reused where their inputs are unchanged.
    fn build(
        cluster: &ClusterManager,
        stamp: Stamp,
        prev: &Snapshot,
        rng: &mut StdRng,
    ) -> Snapshot {
        let tables: BTreeMap<String, Arc<TableView>> = cluster
            .tables()
            .into_iter()
            .filter_map(|name| {
                let view = TableView::build(cluster, &name, prev.tables.get(&name), rng)?;
                Some((name, Arc::new(view)))
            })
            .collect();
        let mut resolve: HashMap<String, Vec<Arc<TableView>>> = HashMap::new();
        // Sorted by name, so a logical name lists OFFLINE before REALTIME.
        for view in tables.values() {
            if view.name != view.config.name {
                resolve
                    .entry(view.config.name.clone())
                    .or_default()
                    .push(Arc::clone(view));
            }
        }
        for (name, view) in &tables {
            resolve.insert(name.clone(), vec![Arc::clone(view)]);
        }
        Snapshot {
            stamp,
            tables: tables.into_iter().collect(),
            resolve,
        }
    }

    /// The physical views behind a query's table name.
    pub fn resolve(&self, name: &str) -> Result<&[Arc<TableView>]> {
        self.resolve
            .get(name)
            .map(Vec::as_slice)
            .ok_or_else(|| PinotError::Metadata(format!("unknown table {name:?}")))
    }
}

impl TableView {
    /// `None` while the table has no readable config (mid-create or
    /// mid-delete).
    fn build(
        cluster: &ClusterManager,
        name: &str,
        prev: Option<&Arc<TableView>>,
        rng: &mut StdRng,
    ) -> Option<TableView> {
        let ms = cluster.metastore();
        let (text, _) = ms.get(&format!("/configs/{name}"))?;
        let config = TableConfig::from_json(&Json::parse(&text).ok()?).ok()?;
        let time_column = ms
            .get(&format!("/schemas/{}", config.name))
            .and_then(|(text, _)| Schema::from_json(&Json::parse(&text).ok()?).ok())
            .and_then(|schema| schema.time_column().map(|f| f.name.clone()));
        let segments: HashMap<String, Arc<SegmentEntry>> = ms
            .children(&format!("/segments/{name}"))
            .into_iter()
            .filter_map(|seg| {
                let (text, _) = ms.get(&format!("/segments/{name}/{seg}"))?;
                let entry = match prev.and_then(|p| p.segments.get(&seg)) {
                    Some(e) if e.text == text => Arc::clone(e),
                    _ => Arc::new(SegmentEntry::decode(&seg, text)?),
                };
                Some((seg, entry))
            })
            .collect();
        let max_time = segments.values().filter_map(|e| e.max_time).max();

        let replicas = routing::invert_view(&cluster.routable_view(name));
        let (routing, replicas) = match prev {
            Some(p) if p.config.routing == config.routing && *p.replicas == replicas => {
                (p.routing.clone(), Arc::clone(&p.replicas))
            }
            _ => (
                routing_tables(&config.routing, &replicas, rng),
                Arc::new(replicas),
            ),
        };
        let partitions = match &config.routing {
            RoutingStrategy::Partitioned {
                column,
                num_partitions,
            } => Some(PartitionIndex::build(
                column,
                *num_partitions,
                &replicas,
                &segments,
            )),
            _ => None,
        };
        Some(TableView {
            name: name.to_string(),
            config,
            time_column,
            max_time,
            routing,
            replicas,
            partitions,
            segments,
        })
    }
}

fn routing_tables(
    strategy: &RoutingStrategy,
    replicas: &SegmentReplicas,
    rng: &mut StdRng,
) -> Vec<RoutingTable> {
    match strategy {
        RoutingStrategy::Balanced | RoutingStrategy::Partitioned { .. } => {
            vec![routing::generate_balanced(replicas)]
        }
        RoutingStrategy::LargeCluster {
            target_servers,
            routing_table_count,
            generation_count,
        } => routing::filter_routing_tables(
            replicas,
            *target_servers,
            *routing_table_count,
            *generation_count,
            rng,
        ),
    }
}

impl PartitionIndex {
    fn build(
        column: &str,
        num_partitions: u32,
        replicas: &SegmentReplicas,
        segments: &HashMap<String, Arc<SegmentEntry>>,
    ) -> PartitionIndex {
        let mut by_partition: HashMap<u32, SegmentReplicas> = HashMap::new();
        for (seg, servers) in replicas {
            let mut add = |p: u32| {
                by_partition
                    .entry(p)
                    .or_default()
                    .insert(seg.clone(), servers.clone());
            };
            match segments.get(seg).and_then(|e| e.partition) {
                Some(p) => add(p),
                // Unknown partition: conservatively include the segment in
                // every partition's set so no data is missed.
                None => (0..num_partitions).for_each(add),
            }
        }
        PartitionIndex {
            column: column.to_string(),
            num_partitions,
            by_partition,
        }
    }
}

impl SegmentEntry {
    /// `None` when the node is not JSON.
    fn decode(segment: &str, text: String) -> Option<SegmentEntry> {
        let json = Json::parse(&text).ok()?;
        let mut zone_maps = ZoneMapStats::default();
        if let Some(Json::Obj(columns)) = json.get("columns") {
            for (name, col) in columns {
                if let Some(range) = parse_zone_map(col) {
                    zone_maps.columns.insert(name.clone(), range);
                }
            }
        }
        let partition = match SegmentName::from_raw(segment).realtime_parts() {
            Some((p, _)) => Some(p),
            None => json
                .get("partitionId")
                .and_then(Json::as_i64)
                .map(|v| v as u32),
        };
        Some(SegmentEntry {
            num_docs: json.get("numDocs").and_then(Json::as_i64).unwrap_or(0) as u64,
            max_time: json.get("maxTime").and_then(Json::as_i64),
            zone_maps,
            partition,
            text,
        })
    }
}

/// Decode one column's zone map from segment metadata JSON — the inverse of
/// the controller's string encoding (bounds are strings because JSON
/// numbers are f64 and would corrupt i64 bounds past 2^53).
fn parse_zone_map(col: &Json) -> Option<ColumnRange> {
    let data_type = DataType::parse(col.get("type")?.as_str()?).ok()?;
    let single_value = col.get("sv")?.as_bool()?;
    let min = parse_zone_bound(col.get("min")?.as_str()?, data_type)?;
    let max = parse_zone_bound(col.get("max")?.as_str()?, data_type)?;
    Some(ColumnRange {
        data_type,
        min,
        max,
        single_value,
    })
}

fn parse_zone_bound(s: &str, data_type: DataType) -> Option<Value> {
    match data_type {
        DataType::Int => s.parse().ok().map(Value::Int),
        DataType::Long => s.parse().ok().map(Value::Long),
        DataType::Float => s.parse().ok().map(Value::Float),
        DataType::Double => s.parse().ok().map(Value::Double),
        DataType::String => Some(Value::String(s.to_string())),
        DataType::Boolean => s.parse().ok().map(Value::Boolean),
    }
}
