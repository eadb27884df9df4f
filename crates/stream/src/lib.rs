//! Kafka-like in-process event stream substrate.
//!
//! Pinot's realtime path consumes business events from Kafka (§3). This
//! crate supplies the properties Pinot relies on, without the network:
//!
//! * topics split into a fixed number of **partitions**;
//! * each partition is an append-only log addressed by dense **offsets**;
//! * producers route records by a partition key (the same partition
//!   function offline data pushes use, `pinot_common::partition`);
//! * consumers **seek** to any retained offset and read batches — there is
//!   no consumer-group state on the broker, exactly like Pinot's
//!   independent per-replica consumers (§3.3.6);
//! * **retention** trims old records, which is what forces Pinot to flush
//!   consuming segments before the stream drops their data.

use parking_lot::RwLock;
use pinot_common::partition::partition_for_value;
use pinot_common::{PinotError, Record, Result, Value};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// Offset within a partition.
pub type Offset = u64;

/// One produced event: the record plus its produce timestamp (millis).
#[derive(Debug, Clone)]
pub struct StreamEvent {
    pub offset: Offset,
    pub record: Record,
    pub timestamp_millis: i64,
}

struct PartitionLog {
    /// Records currently retained; front has offset `start_offset`.
    records: VecDeque<StreamEvent>,
    /// Offset of the oldest retained record.
    start_offset: Offset,
    /// Offset the next produced record will get.
    end_offset: Offset,
}

impl PartitionLog {
    fn new() -> PartitionLog {
        PartitionLog {
            records: VecDeque::new(),
            start_offset: 0,
            end_offset: 0,
        }
    }
}

/// A named topic with a fixed partition count.
pub struct Topic {
    name: String,
    partitions: Vec<RwLock<PartitionLog>>,
}

impl Topic {
    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn num_partitions(&self) -> u32 {
        self.partitions.len() as u32
    }

    /// Append a record to an explicit partition. Returns its offset.
    pub fn produce_to(
        &self,
        partition: u32,
        record: Record,
        timestamp_millis: i64,
    ) -> Result<Offset> {
        let log = self
            .partitions
            .get(partition as usize)
            .ok_or_else(|| PinotError::Io(format!("no partition {partition}")))?;
        let mut log = log.write();
        let offset = log.end_offset;
        log.records.push_back(StreamEvent {
            offset,
            record,
            timestamp_millis,
        });
        log.end_offset += 1;
        Ok(offset)
    }

    /// Append a record routed by a partition key.
    pub fn produce(
        &self,
        key: &Value,
        record: Record,
        timestamp_millis: i64,
    ) -> Result<(u32, Offset)> {
        let partition = partition_for_value(key, self.num_partitions());
        let offset = self.produce_to(partition, record, timestamp_millis)?;
        Ok((partition, offset))
    }

    /// Read up to `max` events starting at `offset`.
    ///
    /// Seeking below the retained range is an error (the data is gone —
    /// the situation Pinot's flush thresholds exist to avoid); seeking at
    /// or past the end returns an empty batch.
    pub fn fetch(&self, partition: u32, offset: Offset, max: usize) -> Result<Vec<StreamEvent>> {
        let log = self
            .partitions
            .get(partition as usize)
            .ok_or_else(|| PinotError::Io(format!("no partition {partition}")))?;
        let log = log.read();
        if offset < log.start_offset {
            return Err(PinotError::Io(format!(
                "offset {offset} below retention start {} on {}/{partition}",
                log.start_offset, self.name
            )));
        }
        if offset >= log.end_offset {
            return Ok(Vec::new());
        }
        let skip = (offset - log.start_offset) as usize;
        Ok(log.records.iter().skip(skip).take(max).cloned().collect())
    }

    /// Offset one past the newest record.
    pub fn latest_offset(&self, partition: u32) -> Result<Offset> {
        Ok(self.part(partition)?.read().end_offset)
    }

    /// Oldest retained offset.
    pub fn earliest_offset(&self, partition: u32) -> Result<Offset> {
        Ok(self.part(partition)?.read().start_offset)
    }

    fn part(&self, partition: u32) -> Result<&RwLock<PartitionLog>> {
        self.partitions
            .get(partition as usize)
            .ok_or_else(|| PinotError::Io(format!("no partition {partition}")))
    }

    /// Trim records older than `min_timestamp_millis` or beyond
    /// `max_records` per partition. Returns total records dropped.
    pub fn enforce_retention(
        &self,
        min_timestamp_millis: Option<i64>,
        max_records: Option<usize>,
    ) -> u64 {
        let mut dropped = 0u64;
        for log in &self.partitions {
            let mut log = log.write();
            if let Some(min_ts) = min_timestamp_millis {
                while log
                    .records
                    .front()
                    .is_some_and(|e| e.timestamp_millis < min_ts)
                {
                    log.records.pop_front();
                    log.start_offset += 1;
                    dropped += 1;
                }
            }
            if let Some(max) = max_records {
                while log.records.len() > max {
                    log.records.pop_front();
                    log.start_offset += 1;
                    dropped += 1;
                }
            }
        }
        dropped
    }
}

/// Registry of topics — the "cluster" handle producers and consumers share.
#[derive(Clone, Default)]
pub struct StreamRegistry {
    topics: Arc<RwLock<HashMap<String, Arc<Topic>>>>,
}

impl StreamRegistry {
    pub fn new() -> StreamRegistry {
        StreamRegistry::default()
    }

    /// Create a topic; idempotent if the partition count matches.
    pub fn create_topic(&self, name: impl Into<String>, partitions: u32) -> Result<Arc<Topic>> {
        if partitions == 0 {
            return Err(PinotError::Io("topic needs at least one partition".into()));
        }
        let name = name.into();
        let mut topics = self.topics.write();
        if let Some(existing) = topics.get(&name) {
            if existing.num_partitions() != partitions {
                return Err(PinotError::Io(format!(
                    "topic {name} exists with {} partitions",
                    existing.num_partitions()
                )));
            }
            return Ok(Arc::clone(existing));
        }
        let topic = Arc::new(Topic {
            name: name.clone(),
            partitions: (0..partitions)
                .map(|_| RwLock::new(PartitionLog::new()))
                .collect(),
        });
        topics.insert(name, Arc::clone(&topic));
        Ok(topic)
    }

    pub fn topic(&self, name: &str) -> Result<Arc<Topic>> {
        self.topics
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| PinotError::Io(format!("unknown topic {name:?}")))
    }
}

/// A simple seeking consumer over one partition.
pub struct PartitionConsumer {
    topic: Arc<Topic>,
    partition: u32,
    position: Offset,
}

impl PartitionConsumer {
    pub fn new(topic: Arc<Topic>, partition: u32, start: Offset) -> PartitionConsumer {
        PartitionConsumer {
            topic,
            partition,
            position: start,
        }
    }

    pub fn position(&self) -> Offset {
        self.position
    }

    pub fn seek(&mut self, offset: Offset) {
        self.position = offset;
    }

    /// Fetch the next batch and advance.
    pub fn poll(&mut self, max: usize) -> Result<Vec<StreamEvent>> {
        let batch = self.topic.fetch(self.partition, self.position, max)?;
        if let Some(last) = batch.last() {
            self.position = last.offset + 1;
        }
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(v: i64) -> Record {
        Record::new(vec![Value::Long(v)])
    }

    #[test]
    fn produce_and_fetch_ordered() {
        let reg = StreamRegistry::new();
        let t = reg.create_topic("events", 1).unwrap();
        for i in 0..10 {
            assert_eq!(t.produce_to(0, rec(i), i).unwrap(), i as u64);
        }
        let batch = t.fetch(0, 3, 4).unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(batch[0].offset, 3);
        assert_eq!(batch[3].offset, 6);
        assert_eq!(t.latest_offset(0).unwrap(), 10);
        assert_eq!(t.earliest_offset(0).unwrap(), 0);
        assert!(t.fetch(0, 10, 5).unwrap().is_empty());
    }

    #[test]
    fn key_routing_is_stable() {
        let reg = StreamRegistry::new();
        let t = reg.create_topic("events", 8).unwrap();
        let (p1, _) = t.produce(&Value::Long(42), rec(1), 0).unwrap();
        let (p2, _) = t.produce(&Value::Long(42), rec(2), 0).unwrap();
        assert_eq!(p1, p2);
        // Offsets are per-partition.
        let (p3, o3) = t.produce(&Value::Long(42), rec(3), 0).unwrap();
        assert_eq!(p3, p1);
        assert_eq!(o3, 2);
    }

    #[test]
    fn retention_by_count_and_time() {
        let reg = StreamRegistry::new();
        let t = reg.create_topic("events", 1).unwrap();
        for i in 0..100 {
            t.produce_to(0, rec(i), i).unwrap();
        }
        let dropped = t.enforce_retention(None, Some(10));
        assert_eq!(dropped, 90);
        assert_eq!(t.earliest_offset(0).unwrap(), 90);
        // Reading trimmed offsets fails loudly.
        assert!(t.fetch(0, 50, 1).is_err());
        // Time-based: drop everything before ts 95.
        let dropped = t.enforce_retention(Some(95), None);
        assert_eq!(dropped, 5);
        assert_eq!(t.earliest_offset(0).unwrap(), 95);
        // Offsets keep increasing after trimming.
        let off = t.produce_to(0, rec(200), 200).unwrap();
        assert_eq!(off, 100);
    }

    #[test]
    fn consumer_polls_and_seeks() {
        let reg = StreamRegistry::new();
        let t = reg.create_topic("events", 1).unwrap();
        for i in 0..5 {
            t.produce_to(0, rec(i), 0).unwrap();
        }
        let mut c = PartitionConsumer::new(Arc::clone(&t), 0, 0);
        let b1 = c.poll(2).unwrap();
        assert_eq!(b1.len(), 2);
        assert_eq!(c.position(), 2);
        let b2 = c.poll(100).unwrap();
        assert_eq!(b2.len(), 3);
        assert_eq!(c.position(), 5);
        assert!(c.poll(10).unwrap().is_empty());
        c.seek(1);
        assert_eq!(c.poll(1).unwrap()[0].offset, 1);
    }

    #[test]
    fn two_consumers_from_same_offset_see_same_data() {
        // The invariant the segment-completion protocol builds on (§3.3.6).
        let reg = StreamRegistry::new();
        let t = reg.create_topic("events", 1).unwrap();
        for i in 0..50 {
            t.produce_to(0, rec(i), 0).unwrap();
        }
        let mut a = PartitionConsumer::new(Arc::clone(&t), 0, 5);
        let mut b = PartitionConsumer::new(Arc::clone(&t), 0, 5);
        let ba: Vec<u64> = a.poll(20).unwrap().iter().map(|e| e.offset).collect();
        let bb: Vec<u64> = b.poll(20).unwrap().iter().map(|e| e.offset).collect();
        assert_eq!(ba, bb);
    }

    #[test]
    fn topic_registry_semantics() {
        let reg = StreamRegistry::new();
        reg.create_topic("a", 2).unwrap();
        assert!(reg.create_topic("a", 2).is_ok()); // idempotent
        assert!(reg.create_topic("a", 3).is_err()); // conflicting
        assert!(reg.create_topic("z", 0).is_err());
        assert!(reg.topic("missing").is_err());
    }

    #[test]
    fn bad_partition_errors() {
        let reg = StreamRegistry::new();
        let t = reg.create_topic("a", 2).unwrap();
        assert!(t.produce_to(5, rec(1), 0).is_err());
        assert!(t.fetch(5, 0, 1).is_err());
        assert!(t.latest_offset(5).is_err());
    }
}
