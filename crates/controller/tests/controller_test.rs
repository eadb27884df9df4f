//! Controller integration tests: table admin, uploads, quota, retention,
//! leader failover — with fake server participants.

use bytes::Bytes;
use parking_lot::Mutex;
use pinot_cluster::{ClusterManager, Participant, SegmentState};
use pinot_common::config::{StreamConfig, TableConfig};
use pinot_common::ids::{InstanceId, TableType};
use pinot_common::time::Clock;
use pinot_common::{DataType, FieldSpec, Record, Result, Schema, TimeUnit, Value};
use pinot_controller::Controller;
use pinot_metastore::MetaStore;
use pinot_objstore::MemoryObjectStore;
use pinot_segment::builder::{BuilderConfig, SegmentBuilder};
use pinot_stream::StreamRegistry;
use std::sync::Arc;

struct FakeServer {
    id: InstanceId,
    transitions: Mutex<Vec<(String, String, SegmentState)>>,
}

impl FakeServer {
    fn new(n: usize) -> Arc<FakeServer> {
        Arc::new(FakeServer {
            id: InstanceId::server(n),
            transitions: Mutex::new(Vec::new()),
        })
    }
}

impl Participant for FakeServer {
    fn instance_id(&self) -> InstanceId {
        self.id.clone()
    }

    fn handle_transition(
        &self,
        table: &str,
        segment: &str,
        _from: SegmentState,
        to: SegmentState,
    ) -> Result<()> {
        self.transitions
            .lock()
            .push((table.to_string(), segment.to_string(), to));
        Ok(())
    }
}

struct Fixture {
    controller: Arc<Controller>,
    standby: Arc<Controller>,
    clock: Clock,
    servers: Vec<Arc<FakeServer>>,
    streams: StreamRegistry,
}

fn fixture(num_servers: usize) -> Fixture {
    let metastore = MetaStore::new();
    let cluster = ClusterManager::new(metastore.clone());
    let objstore = MemoryObjectStore::shared();
    let streams = StreamRegistry::new();
    let clock = Clock::manual(1_000_000_000);
    let servers: Vec<Arc<FakeServer>> = (1..=num_servers).map(FakeServer::new).collect();
    for s in &servers {
        cluster.register_participant(s.clone());
    }
    let controller = Controller::new(
        1,
        metastore.clone(),
        cluster.clone(),
        objstore.clone(),
        streams.clone(),
        clock.clone(),
    );
    let standby = Controller::new(
        2,
        metastore,
        cluster,
        objstore,
        streams.clone(),
        clock.clone(),
    );
    assert!(controller.try_become_leader());
    assert!(!standby.try_become_leader());
    Fixture {
        controller,
        standby,
        clock,
        servers,
        streams,
    }
}

fn schema() -> Schema {
    Schema::new(
        "events",
        vec![
            FieldSpec::dimension("k", DataType::Long),
            FieldSpec::metric("m", DataType::Long),
            FieldSpec::time("day", DataType::Long, TimeUnit::Days),
        ],
    )
    .unwrap()
}

fn segment_blob(name: &str, table: &str, days: &[i64]) -> Bytes {
    let mut b = SegmentBuilder::new(schema(), BuilderConfig::new(name, table)).unwrap();
    for (i, d) in days.iter().enumerate() {
        b.add(Record::new(vec![
            Value::Long(i as i64),
            Value::Long(1),
            Value::Long(*d),
        ]))
        .unwrap();
    }
    Bytes::from(pinot_segment::persist::serialize(&b.build().unwrap()))
}

#[test]
fn create_upload_and_load_offline_table() {
    let fx = fixture(3);
    let cfg = TableConfig::offline("events").with_replication(2);
    fx.controller.create_table(cfg, schema()).unwrap();
    assert_eq!(fx.controller.list_tables(), vec!["events_OFFLINE"]);

    let name = fx
        .controller
        .upload_segment(
            "events_OFFLINE",
            segment_blob("events__0", "events_OFFLINE", &[100]),
        )
        .unwrap();
    assert_eq!(name.as_str(), "events__0");

    // Two replicas went ONLINE somewhere.
    let view = fx.controller.cluster().external_view("events_OFFLINE");
    assert_eq!(view["events__0"].len(), 2);
    assert!(view["events__0"]
        .values()
        .all(|s| *s == SegmentState::Online));
    // Blob is durable and downloadable.
    let blob = fx
        .controller
        .download_segment("events_OFFLINE", "events__0")
        .unwrap();
    assert!(pinot_segment::persist::deserialize(&blob).is_ok());
    // Metadata registered.
    assert_eq!(
        fx.controller.list_segments("events_OFFLINE"),
        vec!["events__0"]
    );
}

#[test]
fn upload_rejects_garbage_and_respects_quota() {
    let fx = fixture(1);
    let cfg = TableConfig::offline("events").with_quota_bytes(400);
    fx.controller.create_table(cfg, schema()).unwrap();

    // Garbage blob is rejected during unpack.
    assert!(fx
        .controller
        .upload_segment("events_OFFLINE", Bytes::from_static(b"not a segment"))
        .is_err());

    // Uploads beyond the quota fail with a quota error.
    let blob = segment_blob("events__0", "events_OFFLINE", &[1]);
    assert!(blob.len() > 200, "blob is {} bytes", blob.len()); // two exceed the quota
    fx.controller
        .upload_segment("events_OFFLINE", blob.clone())
        .unwrap();
    let blob2 = segment_blob("events__1", "events_OFFLINE", &[1]);
    let err = fx
        .controller
        .upload_segment("events_OFFLINE", blob2)
        .unwrap_err();
    assert_eq!(err.kind(), "storage_quota");
}

#[test]
fn non_leader_rejects_admin_ops() {
    let fx = fixture(1);
    let err = fx
        .standby
        .create_table(TableConfig::offline("t"), schema())
        .unwrap_err();
    assert_eq!(err.kind(), "not_leader");
    assert!(err.is_retriable());
}

#[test]
fn leader_failover() {
    let fx = fixture(1);
    fx.controller
        .create_table(TableConfig::offline("events"), schema())
        .unwrap();
    // Leader crashes; standby takes over and can administer.
    fx.controller.crash();
    assert!(fx.standby.try_become_leader());
    fx.standby
        .upload_segment(
            "events_OFFLINE",
            segment_blob("events__0", "events_OFFLINE", &[5]),
        )
        .unwrap();
    assert_eq!(fx.standby.list_segments("events_OFFLINE").len(), 1);
}

#[test]
fn retention_drops_old_segments() {
    let fx = fixture(1);
    let cfg = TableConfig::offline("events").with_retention(TimeUnit::Days, 10);
    fx.controller.create_table(cfg, schema()).unwrap();

    let now_days = fx.clock.now_millis() / TimeUnit::Days.millis();
    // Old segment: max day well before the cutoff. Fresh one: today.
    fx.controller
        .upload_segment(
            "events_OFFLINE",
            segment_blob("events__old", "events_OFFLINE", &[now_days - 100]),
        )
        .unwrap();
    fx.controller
        .upload_segment(
            "events_OFFLINE",
            segment_blob("events__new", "events_OFFLINE", &[now_days]),
        )
        .unwrap();
    let removed = fx.controller.run_retention().unwrap();
    assert_eq!(removed.len(), 1);
    assert_eq!(removed[0].1, "events__old");
    assert_eq!(
        fx.controller.list_segments("events_OFFLINE"),
        vec!["events__new"]
    );
    // Replicas of the expired segment were dropped from the view.
    let view = fx.controller.cluster().external_view("events_OFFLINE");
    assert!(!view.contains_key("events__old"));
    assert!(view.contains_key("events__new"));
}

#[test]
fn realtime_table_provisions_consuming_segments() {
    let fx = fixture(2);
    fx.streams.create_topic("feed-events", 4).unwrap();
    let cfg = TableConfig::realtime(
        "feed",
        StreamConfig {
            topic: "feed-events".into(),
            flush_threshold_rows: 100,
            flush_threshold_millis: 3_600_000,
        },
    )
    .with_replication(2);
    fx.controller.create_table(cfg, schema()).unwrap();

    // One consuming segment per partition, two replicas each.
    let view = fx.controller.cluster().external_view("feed_REALTIME");
    assert_eq!(view.len(), 4);
    for (seg, replicas) in &view {
        assert!(seg.starts_with("feed_REALTIME__"));
        assert_eq!(replicas.len(), 2);
        assert!(replicas.values().all(|s| *s == SegmentState::Consuming));
    }
    // Start offsets recorded.
    let seg = pinot_common::ids::SegmentName::realtime("feed_REALTIME", 0, 0);
    assert_eq!(
        fx.controller
            .consuming_start_offset("feed_REALTIME", &seg)
            .unwrap(),
        0
    );
    // Every fake server saw its transitions.
    let total: usize = fx.servers.iter().map(|s| s.transitions.lock().len()).sum();
    assert_eq!(total, 8);
}

#[test]
fn schema_evolution_adds_column() {
    let fx = fixture(1);
    fx.controller
        .create_table(TableConfig::offline("events"), schema())
        .unwrap();
    let evolved = fx
        .controller
        .add_column("events", FieldSpec::dimension("region", DataType::String))
        .unwrap();
    assert_eq!(evolved.num_columns(), 4);
    assert_eq!(fx.controller.table_schema("events").unwrap(), evolved);
    // Duplicate add fails.
    assert!(fx
        .controller
        .add_column("events", FieldSpec::dimension("region", DataType::String))
        .is_err());
}

#[test]
fn delete_table_removes_everything() {
    let fx = fixture(1);
    fx.controller
        .create_table(TableConfig::offline("events"), schema())
        .unwrap();
    fx.controller
        .upload_segment(
            "events_OFFLINE",
            segment_blob("events__0", "events_OFFLINE", &[1]),
        )
        .unwrap();
    fx.controller
        .delete_table("events", TableType::Offline)
        .unwrap();
    assert!(fx.controller.list_tables().is_empty());
    assert!(fx.controller.list_segments("events_OFFLINE").is_empty());
    assert!(fx
        .controller
        .download_segment("events_OFFLINE", "events__0")
        .is_err());
}

/// Two partitions that commit in the same instant must both keep
/// consuming: each commit is one read-modify-write of the table's ideal
/// state, and neither may overwrite the other's. Both commits start
/// behind a barrier, every iteration; after each, both committed
/// segments are ONLINE and both next segments CONSUMING. The iterations
/// spread over ten tables, so no ideal state grows past 200 segments.
#[test]
fn concurrent_commits_keep_every_partition_consuming() {
    use pinot_common::ids::SegmentName;
    use pinot_common::protocol::{CompletionInstruction, CompletionPoll};
    use std::sync::Barrier;

    const TABLES: usize = 10;
    const ITERATIONS_PER_TABLE: u64 = 100;
    let fx = fixture(1);
    let server = fx.servers[0].instance_id();
    let barrier = Barrier::new(2);
    for t in 0..TABLES {
        let topic = format!("feed{t}-events");
        fx.streams.create_topic(&topic, 2).unwrap();
        let cfg = TableConfig::realtime(
            format!("feed{t}"),
            StreamConfig {
                topic,
                flush_threshold_rows: 10,
                flush_threshold_millis: 3_600_000,
            },
        );
        fx.controller.create_table(cfg, schema()).unwrap();
        let table = format!("feed{t}_REALTIME");
        let table = table.as_str();
        let blobs = [0, 1].map(|p| segment_blob(&format!("feed{t}_p{p}"), table, &[1, 2]));
        for seq in 0..ITERATIONS_PER_TABLE {
            let offset = (seq + 1) * 10;
            let segments = [0, 1].map(|p| SegmentName::realtime(table, p, seq));
            for segment in &segments {
                let poll = CompletionPoll {
                    segment: segment.clone(),
                    instance: server.clone(),
                    offset,
                    commit_upload_done: false,
                };
                assert_eq!(
                    fx.controller.segment_completion_poll(&poll),
                    CompletionInstruction::Commit
                );
            }
            std::thread::scope(|s| {
                for (segment, blob) in segments.iter().zip(&blobs) {
                    let (controller, barrier, server) = (&fx.controller, &barrier, &server);
                    s.spawn(move || {
                        barrier.wait();
                        let committed = controller
                            .commit_segment(table, segment, server, offset, blob.clone())
                            .unwrap();
                        assert!(committed, "{segment} was not committed");
                    });
                }
            });
            let ideal = fx.controller.cluster().ideal_state(table).unwrap();
            for p in [0, 1] {
                let state = |seq| {
                    ideal
                        .segments
                        .get(SegmentName::realtime(table, p, seq).as_str())
                        .and_then(|replicas| replicas.get(&server).copied())
                };
                assert_eq!(
                    state(seq),
                    Some(SegmentState::Online),
                    "{table} iteration {seq}: partition {p}'s committed segment"
                );
                assert_eq!(
                    state(seq + 1),
                    Some(SegmentState::Consuming),
                    "{table} iteration {seq}: partition {p}'s next segment"
                );
            }
        }
    }
}
