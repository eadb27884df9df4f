//! Property tests for the profile-merge algebra (ISSUE 6 satellite).
//!
//! [`ProfileNode::fold`] is what lets servers summarise segment profiles
//! and the broker merge hybrid-table halves in whatever order partials
//! arrive: it must be commutative and associative up to the summary
//! representation (names stripped, children keyed and sorted by
//! (operator, plan_kind, prune)). `aggregate_segment_profiles`
//! must preserve every counter while capping how many exact per-segment
//! nodes survive.

use pinot_common::profile::{aggregate_segment_profiles, ProfileNode};
use proptest::prelude::*;

/// A segment profile in one of the shapes real executions produce:
/// raw aggregate, raw group-by, star-tree, zonemap-pruned, metadata-only.
type Desc = (usize, u64, u64, u64, u64);

fn node_from(desc: &Desc, i: usize) -> ProfileNode {
    let (shape, docs_in, docs_out, blocks, elapsed) = *desc;
    let docs_out = docs_out.min(docs_in);
    let mut seg = ProfileNode::named("segment", format!("seg{i}"));
    seg.segments = 1;
    seg.docs_in = docs_in;
    seg.elapsed_ns = elapsed;
    match shape % 5 {
        0 | 1 => {
            seg.plan_kind = Some("raw");
            seg.docs_out = docs_out;
            let mut filter = ProfileNode::new("filter");
            filter.docs_in = docs_in;
            filter.docs_out = docs_out;
            filter.elapsed_ns = elapsed / 3;
            let mut scan = ProfileNode::new(if shape % 5 == 0 {
                "aggregate"
            } else {
                "group_by"
            });
            scan.docs_in = docs_out;
            scan.docs_out = 1;
            scan.blocks_decoded = blocks;
            scan.elapsed_ns = elapsed - elapsed / 3;
            seg.children = vec![filter, scan];
        }
        2 => {
            seg.plan_kind = Some("star_tree");
            seg.docs_out = docs_out;
            let mut tree = ProfileNode::new("star_tree");
            tree.docs_in = docs_in;
            tree.docs_out = docs_out;
            tree.elapsed_ns = elapsed;
            seg.children = vec![tree];
        }
        3 => {
            seg.prune = Some("zonemap");
        }
        _ => {
            seg.plan_kind = Some("metadata_only");
            let mut meta = ProfileNode::new("metadata_only");
            meta.elapsed_ns = elapsed;
            seg.children = vec![meta];
        }
    }
    seg
}

fn fold_all<'a>(nodes: impl Iterator<Item = &'a ProfileNode>) -> ProfileNode {
    let mut s = ProfileNode::summary("segments_summary");
    for n in nodes {
        s.fold(n);
    }
    s
}

fn totals(nodes: &[ProfileNode]) -> (u64, u64, u64, u64, u64) {
    nodes.iter().fold((0, 0, 0, 0, 0), |acc, n| {
        (
            acc.0 + n.docs_in,
            acc.1 + n.docs_out,
            acc.2 + n.blocks_decoded,
            acc.3 + n.elapsed_ns,
            acc.4 + n.segments.max(1),
        )
    })
}

proptest! {
    /// Folding any permutation of the same segment set yields the same
    /// summary tree, and folding two partial summaries together equals
    /// folding everything sequentially — merge order is unobservable.
    #[test]
    fn fold_is_commutative_and_associative(
        descs in prop::collection::vec((0usize..5, 0u64..1000, 0u64..1000, 0u64..16, 0u64..100_000), 1..16),
    ) {
        let nodes: Vec<ProfileNode> = descs
            .iter()
            .enumerate()
            .map(|(i, d)| node_from(d, i))
            .collect();

        let fwd = fold_all(nodes.iter());
        let rev = fold_all(nodes.iter().rev());
        prop_assert_eq!(&fwd, &rev, "fold must be commutative");

        // Associativity: split anywhere, fold halves, combine.
        let k = nodes.len() / 2;
        let mut left = fold_all(nodes[..k].iter());
        let right = fold_all(nodes[k..].iter());
        left.fold(&right);
        // The combined summary double-counts nothing and loses nothing.
        prop_assert_eq!(left.docs_in, fwd.docs_in);
        prop_assert_eq!(left.docs_out, fwd.docs_out);
        prop_assert_eq!(left.blocks_decoded, fwd.blocks_decoded);
        prop_assert_eq!(left.elapsed_ns, fwd.elapsed_ns);
        prop_assert_eq!(left.segments, fwd.segments);
        prop_assert_eq!(&left.children, &fwd.children);
    }

    /// Server-side aggregation is lossless on counters: whatever
    /// `keep_exact`, the output accounts for exactly the input's docs,
    /// blocks, time, and segment count; at most `keep_exact` nodes stay
    /// named; summaries are anonymous; and input order is unobservable.
    #[test]
    fn aggregate_preserves_totals_and_caps_exact_nodes(
        descs in prop::collection::vec((0usize..5, 0u64..1000, 0u64..1000, 0u64..16, 0u64..100_000), 0..20),
        keep in 0usize..6,
    ) {
        let nodes: Vec<ProfileNode> = descs
            .iter()
            .enumerate()
            .map(|(i, d)| node_from(d, i))
            .collect();
        let before = totals(&nodes);

        let out = aggregate_segment_profiles(nodes.clone(), keep);
        prop_assert_eq!(totals(&out), before, "aggregation must not lose counters");

        let named = out.iter().filter(|n| n.name.is_some()).count();
        prop_assert!(named <= keep, "{named} named nodes with keep_exact={keep}");
        for n in &out {
            if n.operator == "segments_summary" {
                prop_assert!(n.name.is_none());
                prop_assert!(n.segments >= 1);
            }
        }

        // Permutation invariance: reversed input, identical output.
        let reversed = aggregate_segment_profiles(
            nodes.iter().rev().cloned().collect(),
            keep,
        );
        prop_assert_eq!(&out, &reversed);
    }
}
