//! Query profiles: structured per-operator execution trees.
//!
//! A [`ProfileNode`] records what one operator (filter, scan, star-tree,
//! metadata-only, group-by, merge, ...) did during a query: documents in
//! and out, blocks decoded, wall time, plan kind and prune attribution.
//! Segment executions produce small trees; servers aggregate them (keeping
//! the slowest segments exact and folding the rest into a summary node);
//! the broker merges per-server trees into one cluster-wide
//! [`QueryProfile`] that is attached to slow-query-log entries and
//! returned by `execute_profiled`.
//!
//! Serialization uses the in-repo JSON emitter with stable field names so
//! benches and external tools can diff profiles across runs.

use crate::json::Json;
use std::sync::Arc;

/// One operator's contribution to a query.
///
/// `elapsed_ns` is inclusive of children; [`ProfileNode::self_ns`] gives
/// the exclusive time. Counter semantics: `docs_in` is the number of
/// documents the operator considered, `docs_out` the number it produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileNode {
    /// Operator kind: `filter`, `scan`, `aggregate`, `group_by`, `select`,
    /// `star_tree`, `metadata_only`, `segment`, `segments_summary`,
    /// `server`, `broker`, `merge`, or a phase name. A static label so
    /// building and folding profile trees on the hot path never allocates
    /// for the enum-like attributes (only `name` is dynamic).
    pub operator: &'static str,
    /// Instance label (segment name, server id). Cleared when the node is
    /// folded into a summary. `Arc<str>` so hot-path construction shares
    /// the label the segment already owns instead of allocating per query.
    pub name: Option<Arc<str>>,
    /// Plan the segment chose: `metadata_only` | `star_tree` | `raw`.
    pub plan_kind: Option<&'static str>,
    /// Prune attribution when the segment was skipped:
    /// `time` | `zonemap` | `bloom` | `stats` | `broker` | `partition`.
    pub prune: Option<&'static str>,
    pub docs_in: u64,
    pub docs_out: u64,
    pub blocks_decoded: u64,
    pub elapsed_ns: u64,
    /// How many segment executions are folded into this node (1 for an
    /// exact per-segment node, more for summary nodes).
    pub segments: u64,
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    pub fn new(operator: &'static str) -> ProfileNode {
        ProfileNode {
            operator,
            segments: 0,
            ..ProfileNode::default()
        }
    }

    pub fn named(operator: &'static str, name: impl Into<Arc<str>>) -> ProfileNode {
        ProfileNode {
            name: Some(name.into()),
            ..ProfileNode::new(operator)
        }
    }

    /// Merge identity: a node every fold leaves unchanged except for the
    /// absorbed counters.
    pub fn summary(operator: &'static str) -> ProfileNode {
        ProfileNode::new(operator)
    }

    /// Exclusive time: `elapsed_ns` minus the children's inclusive time.
    pub fn self_ns(&self) -> u64 {
        let child_ns: u64 = self.children.iter().map(|c| c.elapsed_ns).sum();
        self.elapsed_ns.saturating_sub(child_ns)
    }

    /// Key that decides which children merge with each other when folding.
    fn fold_key(&self) -> (&'static str, Option<&'static str>, Option<&'static str>) {
        (self.operator, self.plan_kind, self.prune)
    }

    fn strip_names(&mut self) {
        self.name = None;
        for c in &mut self.children {
            c.strip_names();
        }
    }

    /// Fold `other` into `self`, summing all counters and recursively
    /// merging children that share (operator, plan_kind, prune).
    /// Instance names are dropped — a folded node is a summary. Children
    /// are kept sorted by fold key, which makes folding associative and
    /// commutative (see the proptests in pinot-exec).
    pub fn fold(&mut self, other: &ProfileNode) {
        self.docs_in += other.docs_in;
        self.docs_out += other.docs_out;
        self.blocks_decoded += other.blocks_decoded;
        self.elapsed_ns += other.elapsed_ns;
        self.segments += other.segments.max(1);
        self.name = None;
        for oc in &other.children {
            match self
                .children
                .iter_mut()
                .find(|c| c.fold_key() == oc.fold_key())
            {
                Some(mine) => mine.fold(oc),
                None => {
                    let mut clone = oc.clone();
                    clone.strip_names();
                    if clone.segments == 0 {
                        clone.segments = 1;
                    }
                    self.children.push(clone);
                }
            }
        }
        self.children
            .sort_by(|a, b| a.fold_key().cmp(&b.fold_key()));
    }

    /// Sum of `docs_out` over leaves matching `operator` anywhere in the
    /// tree (used by tests reconciling profiles against execution stats).
    pub fn sum_docs_out(&self, operator: &str) -> u64 {
        let own = if self.operator == operator {
            self.docs_out
        } else {
            0
        };
        own + self
            .children
            .iter()
            .map(|c| c.sum_docs_out(operator))
            .sum::<u64>()
    }

    /// Count nodes matching a predicate anywhere in the tree.
    pub fn count_nodes(&self, pred: &dyn Fn(&ProfileNode) -> bool) -> u64 {
        let own = u64::from(pred(self));
        own + self
            .children
            .iter()
            .map(|c| c.count_nodes(pred))
            .sum::<u64>()
    }

    /// The operator with the largest *exclusive* time anywhere in the
    /// tree — "where did this query's time go". Ties break toward the
    /// first node in depth-first order.
    pub fn dominant_operator(&self) -> (&str, u64) {
        let mut best: (&str, u64) = (self.operator, self.self_ns());
        for c in &self.children {
            let cand = c.dominant_operator();
            if cand.1 > best.1 {
                best = cand;
            }
        }
        best
    }

    /// JSON with stable field names. Optional attributes are omitted when
    /// absent; counters and `children` are always present.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = vec![("operator", self.operator.into())];
        if let Some(n) = &self.name {
            pairs.push(("name", (&**n).into()));
        }
        if let Some(k) = self.plan_kind {
            pairs.push(("plan_kind", k.into()));
        }
        if let Some(p) = self.prune {
            pairs.push(("prune", p.into()));
        }
        pairs.push(("docs_in", self.docs_in.into()));
        pairs.push(("docs_out", self.docs_out.into()));
        pairs.push(("blocks_decoded", self.blocks_decoded.into()));
        pairs.push(("elapsed_ns", self.elapsed_ns.into()));
        pairs.push(("segments", self.segments.into()));
        pairs.push((
            "children",
            Json::Arr(self.children.iter().map(|c| c.to_json()).collect()),
        ));
        Json::obj(pairs)
    }

    /// Indented one-line-per-operator rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let mut label = self.operator.to_string();
        if let Some(n) = &self.name {
            label.push_str(&format!(" {n}"));
        }
        let mut attrs = Vec::new();
        if let Some(k) = self.plan_kind {
            attrs.push(format!("plan={k}"));
        }
        if let Some(p) = self.prune {
            attrs.push(format!("prune={p}"));
        }
        if self.segments > 1 {
            attrs.push(format!("segments={}", self.segments));
        }
        attrs.push(format!("docs={}→{}", self.docs_in, self.docs_out));
        if self.blocks_decoded > 0 {
            attrs.push(format!("blocks={}", self.blocks_decoded));
        }
        attrs.push(format!("{:.3}ms", self.elapsed_ns as f64 / 1e6));
        out.push_str(&format!(
            "{:indent$}{label} [{}]\n",
            "",
            attrs.join(" "),
            indent = depth * 2,
        ));
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

/// A cluster-wide merged profile for one query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryProfile {
    /// Broker-assigned query id; joins the profile with spans, per-server
    /// stats, and the slow-query log.
    pub query_id: u64,
    /// Root of the broker → server → segment operator tree.
    pub root: ProfileNode,
}

impl QueryProfile {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("query_id", self.query_id.into()),
            ("root", self.root.to_json()),
        ])
    }

    pub fn render_text(&self) -> String {
        format!("query_id: {}\n{}", self.query_id, self.root.render_text())
    }

    /// Delegates to [`ProfileNode::dominant_operator`] on the root.
    pub fn dominant_operator(&self) -> (&str, u64) {
        self.root.dominant_operator()
    }
}

/// Server-side aggregation of per-segment profile trees: the `keep_exact`
/// slowest segments stay as exact per-segment nodes; the rest fold into
/// `segments_summary` nodes, one per (plan_kind, prune) shape so
/// prune attribution survives the folding. Returns the kept nodes
/// slowest-first followed by the summaries in fold-key order.
pub fn aggregate_segment_profiles(
    mut nodes: Vec<ProfileNode>,
    keep_exact: usize,
) -> Vec<ProfileNode> {
    nodes.sort_by(|a, b| {
        b.elapsed_ns
            .cmp(&a.elapsed_ns)
            .then_with(|| a.name.cmp(&b.name))
    });
    let rest = nodes.split_off(keep_exact.min(nodes.len()));
    let mut summaries: Vec<ProfileNode> = Vec::new();
    for node in &rest {
        let shape = (node.plan_kind, node.prune);
        match summaries
            .iter_mut()
            .find(|s| (s.plan_kind, s.prune) == shape)
        {
            Some(s) => s.fold(node),
            None => {
                let mut s = ProfileNode::summary("segments_summary");
                s.plan_kind = node.plan_kind;
                s.prune = node.prune;
                s.fold(node);
                summaries.push(s);
            }
        }
    }
    summaries.sort_by(|a, b| a.fold_key().cmp(&b.fold_key()));
    nodes.extend(summaries);
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment_node(name: &str, filter_ns: u64, scan_ns: u64) -> ProfileNode {
        let mut seg = ProfileNode::named("segment", name);
        seg.plan_kind = Some("raw");
        seg.segments = 1;
        seg.docs_in = 100;
        seg.docs_out = 40;
        seg.elapsed_ns = filter_ns + scan_ns;
        let mut filter = ProfileNode::new("filter");
        filter.docs_in = 100;
        filter.docs_out = 40;
        filter.elapsed_ns = filter_ns;
        let mut scan = ProfileNode::new("aggregate");
        scan.docs_in = 40;
        scan.docs_out = 1;
        scan.blocks_decoded = 2;
        scan.elapsed_ns = scan_ns;
        seg.children = vec![filter, scan];
        seg
    }

    #[test]
    fn fold_sums_counters_and_merges_children() {
        let mut sum = ProfileNode::summary("segments_summary");
        sum.fold(&segment_node("s1", 10, 20));
        sum.fold(&segment_node("s2", 5, 7));
        assert_eq!(sum.segments, 2);
        assert_eq!(sum.docs_in, 200);
        assert_eq!(sum.docs_out, 80);
        assert_eq!(sum.elapsed_ns, 42);
        assert_eq!(sum.children.len(), 2);
        let agg = sum
            .children
            .iter()
            .find(|c| c.operator == "aggregate")
            .unwrap();
        assert_eq!(agg.blocks_decoded, 4);
        assert_eq!(agg.segments, 2);
        assert!(agg.name.is_none());
    }

    #[test]
    fn fold_is_order_independent() {
        let nodes = [
            segment_node("a", 1, 2),
            segment_node("b", 3, 4),
            segment_node("c", 5, 6),
        ];
        let mut fwd = ProfileNode::summary("s");
        let mut rev = ProfileNode::summary("s");
        for n in &nodes {
            fwd.fold(n);
        }
        for n in nodes.iter().rev() {
            rev.fold(n);
        }
        assert_eq!(fwd, rev);
    }

    #[test]
    fn dominant_operator_uses_exclusive_time() {
        let seg = segment_node("s1", 10, 90);
        assert_eq!(seg.dominant_operator(), ("aggregate", 90));
    }

    #[test]
    fn json_has_stable_field_names() {
        let profile = QueryProfile {
            query_id: 7,
            root: segment_node("s1", 1, 2),
        };
        let text = profile.to_json().emit();
        for field in [
            "\"query_id\"",
            "\"operator\"",
            "\"docs_in\"",
            "\"docs_out\"",
            "\"blocks_decoded\"",
            "\"elapsed_ns\"",
            "\"segments\"",
            "\"children\"",
            "\"plan_kind\"",
        ] {
            assert!(text.contains(field), "missing {field} in {text}");
        }
        // Round-trips through the parser.
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn aggregate_keeps_slowest_exact_and_folds_rest_by_shape() {
        let mut pruned = ProfileNode::named("segment", "p1");
        pruned.prune = Some("zonemap");
        pruned.segments = 1;
        pruned.docs_in = 50;
        let nodes = vec![
            segment_node("fast", 1, 2),
            segment_node("slow", 50, 60),
            segment_node("mid", 10, 20),
            pruned,
        ];
        let out = aggregate_segment_profiles(nodes, 1);
        // Slowest segment survives exactly, with its name.
        assert_eq!(out[0].name.as_deref(), Some("slow"));
        assert_eq!(out[0].elapsed_ns, 110);
        // The rest fold into two summaries: one raw shape, one pruned shape.
        let summaries: Vec<_> = out
            .iter()
            .filter(|n| n.operator == "segments_summary")
            .collect();
        assert_eq!(summaries.len(), 2);
        let raw = summaries
            .iter()
            .find(|s| s.plan_kind == Some("raw"))
            .unwrap();
        assert_eq!(raw.segments, 2);
        assert_eq!(raw.docs_in, 200);
        let zoned = summaries
            .iter()
            .find(|s| s.prune == Some("zonemap"))
            .unwrap();
        assert_eq!(zoned.segments, 1);
        assert_eq!(zoned.docs_in, 50);
    }

    #[test]
    fn render_text_names_operators() {
        let seg = segment_node("s1", 1, 2);
        let text = seg.render_text();
        assert!(text.contains("segment s1"));
        assert!(text.contains("filter"));
        assert!(text.contains("aggregate [docs=40→1 blocks=2"));
    }
}
