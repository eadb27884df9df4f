//! Impression-discounting dataset (Figure 16).
//!
//! Feed personalization tracks what each member has already seen so that
//! ignored items rank lower. Every news-feed view issues several queries
//! fetching the member's seen items, making this the highest-QPS,
//! lowest-complexity workload in the paper — and the one where
//! partition-aware routing matters most: every query carries a
//! `member_id = X` filter, so a partitioned table lets the broker touch a
//! single server instead of fanning out.

use crate::util::Zipf;
use pinot_common::{DataType, FieldSpec, Record, Schema, TimeUnit, Value};
use rand::Rng;

pub const TABLE: &str = "impressions";

const ACTIONS: [&str; 4] = ["impression", "skip", "click", "hide"];
pub const DAYS: i64 = 7;

pub fn schema() -> Schema {
    Schema::new(
        TABLE,
        vec![
            FieldSpec::dimension("member_id", DataType::Long),
            FieldSpec::dimension("item_id", DataType::Long),
            FieldSpec::dimension("action", DataType::String),
            FieldSpec::metric("cnt", DataType::Long),
            FieldSpec::time("hour", DataType::Long, TimeUnit::Hours),
        ],
    )
    .unwrap()
}

pub struct ImpressionGen {
    members: Zipf,
    num_items: usize,
    base_hour: i64,
}

impl ImpressionGen {
    pub fn new(num_members: usize, num_items: usize, base_hour: i64) -> ImpressionGen {
        ImpressionGen {
            members: Zipf::new(num_members, 0.9),
            num_items,
            base_hour,
        }
    }

    pub fn rows(&self, n: usize, rng: &mut impl Rng) -> Vec<Record> {
        (0..n).map(|_| self.row(rng)).collect()
    }

    /// One feed event (also used for realtime production).
    pub fn row(&self, rng: &mut impl Rng) -> Record {
        let action = match rng.gen_range(0..10) {
            0 => "click",
            1 => "hide",
            2..=4 => "skip",
            _ => "impression",
        };
        debug_assert!(ACTIONS.contains(&action));
        Record::new(vec![
            Value::Long(self.members.sample(rng) as i64),
            Value::Long(rng.gen_range(0..self.num_items) as i64),
            Value::String(action.to_string()),
            Value::Long(1),
            Value::Long(self.base_hour + rng.gen_range(0..DAYS * 24)),
        ])
    }

    /// Feed-view queries: what has this member already seen?
    pub fn query(&self, rng: &mut impl Rng) -> String {
        let member = self.members.sample(rng) as i64;
        match rng.gen_range(0..3) {
            0 => format!(
                "SELECT SUM(cnt) FROM {TABLE} WHERE member_id = {member} \
                 GROUP BY item_id TOP 50"
            ),
            1 => format!(
                "SELECT SUM(cnt) FROM {TABLE} WHERE member_id = {member} \
                 AND action = 'impression' GROUP BY item_id TOP 50"
            ),
            _ => format!(
                "SELECT COUNT(*) FROM {TABLE} WHERE member_id = {member} \
                 AND hour >= {}",
                self.base_hour + 24
            ),
        }
    }

    pub fn queries(&self, n: usize, rng: &mut impl Rng) -> Vec<String> {
        (0..n).map(|_| self.query(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rows_match_schema_and_queries_key_on_member() {
        let mut rng = StdRng::seed_from_u64(1);
        let gen = ImpressionGen::new(10_000, 1_000, 420_000);
        let s = schema();
        for r in gen.rows(300, &mut rng) {
            r.normalize(&s).unwrap();
        }
        for q in gen.queries(100, &mut rng) {
            assert!(q.contains("member_id ="), "{q}");
        }
    }

    #[test]
    fn action_mix_is_mostly_impressions() {
        let mut rng = StdRng::seed_from_u64(2);
        let gen = ImpressionGen::new(100, 100, 0);
        let rows = gen.rows(5_000, &mut rng);
        let impressions = rows
            .iter()
            .filter(|r| r.values()[2].as_str() == Some("impression"))
            .count();
        assert!(impressions > 2_000);
    }
}
