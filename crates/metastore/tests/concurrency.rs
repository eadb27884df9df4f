//! Concurrency tests for the metastore: compare-and-set linearizes
//! concurrent writers, the generation counts every committed write, and leader
//! election admits exactly one leader under contention.

use pinot_metastore::MetaStore;
use std::sync::Arc;
use std::thread;

#[test]
fn cas_counter_under_contention() {
    let ms = MetaStore::new();
    ms.set("/counter", "0", None).unwrap();
    let ms = Arc::new(ms);
    let threads = 8;
    let increments_each = 200;

    thread::scope(|scope| {
        for _ in 0..threads {
            let ms = Arc::clone(&ms);
            scope.spawn(move || {
                for _ in 0..increments_each {
                    loop {
                        let (value, version) = ms.get("/counter").unwrap();
                        let next = value.parse::<u64>().unwrap() + 1;
                        if ms.set("/counter", next.to_string(), Some(version)).is_ok() {
                            break;
                        }
                        // Version conflict: somebody else won; retry.
                    }
                }
            });
        }
    });

    let (value, _) = ms.get("/counter").unwrap();
    assert_eq!(
        value.parse::<u64>().unwrap(),
        (threads * increments_each) as u64,
        "CAS must not lose increments"
    );
}

#[test]
fn generation_counts_every_committed_write() {
    let ms = Arc::new(MetaStore::new());
    let before = ms.generation();
    let writers = 4;
    let writes_each = 100;

    thread::scope(|scope| {
        for w in 0..writers {
            let ms = Arc::clone(&ms);
            scope.spawn(move || {
                for i in 0..writes_each {
                    ms.set(&format!("/data/w{w}/k{i}"), "v", None).unwrap();
                }
            });
        }
    });

    assert_eq!(ms.generation() - before, (writers * writes_each) as u64);
}

#[test]
fn single_leader_under_racing_candidates() {
    let ms = Arc::new(MetaStore::new());
    let candidates = 8;
    let winners: Vec<bool> = thread::scope(|scope| {
        let handles: Vec<_> = (0..candidates)
            .map(|i| {
                let ms = Arc::clone(&ms);
                scope.spawn(move || {
                    let session = ms.create_session();
                    ms.elect_leader("race", session, &format!("cand_{i}"))
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(
        winners.iter().filter(|w| **w).count(),
        1,
        "exactly one candidate may win"
    );
    assert!(ms.leader("race").is_some());
}

#[test]
fn concurrent_ephemeral_expiry_is_clean() {
    let ms = Arc::new(MetaStore::new());
    let sessions: Vec<_> = (0..6).map(|_| ms.create_session()).collect();
    for (i, s) in sessions.iter().enumerate() {
        for k in 0..20 {
            ms.create(&format!("/eph/s{i}/k{k}"), "x", Some(*s))
                .unwrap();
        }
    }
    thread::scope(|scope| {
        for s in &sessions {
            let ms = Arc::clone(&ms);
            let s = *s;
            scope.spawn(move || ms.expire_session(s));
        }
    });
    assert!(ms
        .children("/eph")
        .iter()
        .all(|c| ms.children(&format!("/eph/{c}")).is_empty()));
}
