//! Load generation: a closed loop (each client waits for its reply), an
//! open loop (queries are due on a schedule, whatever the system does), and
//! the stream producer/consumer loop of `hybrid_ingest`. All of them only
//! record raw timestamps; percentiles are taken afterwards in `stats`.

use pinot_common::{PinotError, Record, Result};
use pinot_core::PinotCluster;
use pinot_stream::Topic;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Nanoseconds since the start of the run; every span and sample of one
/// process is on this one axis.
#[derive(Clone, Copy)]
pub struct Epoch(Instant);

impl Epoch {
    pub fn start() -> Epoch {
        Epoch(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// What the engine reports back for one query.
#[derive(Clone, Copy, Debug, Default)]
pub struct Outcome {
    pub ok: bool,
    /// Broker-assigned id, the key server spans join on (0 when unknown).
    pub query_id: u64,
}

/// One query as the client saw it. `start_ns` is when it was sent in a
/// closed loop and when it was *due* in an open loop.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub idx: u32,
    pub query_id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
}

/// The measured part of a run, on the epoch axis, with the process CPU
/// time spent inside it.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub start_ns: u64,
    pub end_ns: u64,
    pub cpu_secs: f64,
}

impl Window {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// Started and finished inside the window.
    pub fn holds(&self, s: &Sample) -> bool {
        s.start_ns >= self.start_ns && s.end_ns <= self.end_ns
    }
}

/// User + system CPU time of this process so far, from `/proc/self/stat`
/// (fields 14 and 15, in 1/100 s ticks on Linux).
pub fn process_cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; count from its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / 100.0
}

/// Sleep through warm-up, then through the measured window, reading the
/// CPU clock at both edges. The load runs on other threads meanwhile.
pub fn hold_window(epoch: Epoch, warm: Duration, measure: Duration) -> Window {
    std::thread::sleep(warm);
    let (start_ns, cpu0) = (epoch.now_ns(), process_cpu_secs());
    std::thread::sleep(measure);
    Window {
        start_ns,
        end_ns: epoch.now_ns(),
        cpu_secs: process_cpu_secs() - cpu0,
    }
}

/// Closed loop: `clients` threads each send their next query (client `c`
/// takes indices `c, c + clients, …`, wrapping at `num_queries`) as soon as
/// the previous one returned. Returns every sample, warm-up included, and
/// the measured window.
pub fn closed_loop(
    epoch: Epoch,
    clients: usize,
    warm: Duration,
    measure: Duration,
    num_queries: usize,
    exec: &(dyn Fn(usize) -> Outcome + Sync),
) -> (Vec<Sample>, Window) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(1 << 17);
                    let mut i = c;
                    while !stop.load(Ordering::Relaxed) {
                        let idx = i % num_queries;
                        let start_ns = epoch.now_ns();
                        let o = exec(idx);
                        out.push(Sample {
                            idx: idx as u32,
                            query_id: o.query_id,
                            start_ns,
                            end_ns: epoch.now_ns(),
                            ok: o.ok,
                        });
                        i += clients;
                    }
                    out
                })
            })
            .collect();
        let window = hold_window(epoch, warm, measure);
        stop.store(true, Ordering::Relaxed);
        let samples = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect();
        (samples, window)
    })
}

/// Open loop on one thread: query `i` is due at `i / rate` seconds and is
/// timed from then, so a stall is charged to every query that was due
/// while it lasted. Runs until `stop`. Also returns how late each query
/// was actually sent.
pub fn open_loop(
    epoch: Epoch,
    rate_per_s: u64,
    stop: &AtomicBool,
    exec: &mut dyn FnMut(usize) -> Outcome,
) -> (Vec<Sample>, Vec<u64>) {
    let first_due = epoch.now_ns();
    let mut samples = Vec::with_capacity(1 << 14);
    let mut lag = Vec::with_capacity(1 << 14);
    let mut i = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let due = first_due + i * 1_000_000_000 / rate_per_s;
        let now = epoch.now_ns();
        if now < due {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        lag.push(epoch.now_ns().saturating_sub(due));
        let o = exec(i as usize);
        samples.push(Sample {
            idx: i as u32,
            query_id: o.query_id,
            start_ns: due,
            end_ns: epoch.now_ns(),
            ok: o.ok,
        });
        i += 1;
    }
    (samples, lag)
}

/// One `consume_tick` of the whole cluster.
#[derive(Clone, Copy, Debug)]
pub struct Tick {
    pub start_ns: u64,
    pub end_ns: u64,
    pub rows: u64,
    /// Rows consumed up to and including this tick.
    pub cumulative: u64,
    /// Committed segments held by the servers after the tick.
    pub online_segments: u64,
}

pub struct IngestRun {
    pub start_ns: u64,
    pub ticks: Vec<Tick>,
    pub produced: u64,
    /// Most events that were published but not yet consumed after a tick.
    pub max_lag_rows: u64,
}

/// The event stream of `hybrid_ingest`: event `k` is `pool[k % len]`, due
/// `k / rate_per_s` seconds after the start.
pub struct EventStream<'a> {
    pub topic: &'a Topic,
    pub pool: &'a [Record],
    pub rate_per_s: u64,
    /// The first `head_start` events go to partition 0 and the rest take
    /// turns: with a head start of half a segment the partitions never
    /// reach their flush threshold in the same tick.
    pub head_start: u64,
}

impl EventStream<'_> {
    pub fn partition_of(&self, k: u64) -> u32 {
        match k.checked_sub(self.head_start) {
            Some(turn) => (turn % self.topic.num_partitions() as u64) as u32,
            None => 0,
        }
    }

    pub fn publish(&self, k: u64) -> Result<()> {
        let record = self.pool[(k % self.pool.len() as u64) as usize].clone();
        self.topic.produce_to(self.partition_of(k), record, 0)?;
        Ok(())
    }

    pub fn due_ns(&self, start_ns: u64, k: u64) -> u64 {
        start_ns + k * 1_000_000_000 / self.rate_per_s
    }
}

fn online_segments(cluster: &PinotCluster) -> u64 {
    cluster
        .servers()
        .iter()
        .map(|s| s.num_online_segments() as u64)
        .sum()
}

/// The stream side of `hybrid_ingest`, on one thread: publish every event
/// that has come due, run one `consume_tick`, repeat every `tick_interval`
/// for `duration`, then keep ticking until the tail is consumed.
/// `consumed` is updated after each tick so the query thread can tell what
/// a probe must see.
pub fn ingest_loop(
    epoch: Epoch,
    cluster: &PinotCluster,
    stream: &EventStream,
    duration: Duration,
    tick_interval: Duration,
    consumed: &AtomicU64,
) -> Result<IngestRun> {
    let start_ns = epoch.now_ns();
    let rate = stream.rate_per_s;
    let total = rate * duration.as_nanos() as u64 / 1_000_000_000;
    let mut run = IngestRun {
        start_ns,
        ticks: Vec::with_capacity(1 << 16),
        produced: 0,
        max_lag_rows: 0,
    };
    let mut cumulative = 0u64;
    while cumulative < total {
        let elapsed = epoch.now_ns() - start_ns;
        if elapsed > duration.as_nanos() as u64 + 30_000_000_000 {
            return Err(PinotError::Internal(format!(
                "ingest stalled: {cumulative} of {total} rows consumed 30 s after the schedule ended"
            )));
        }
        let due = (elapsed as u128 * rate as u128 / 1_000_000_000) as u64;
        let due = (due + 1).min(total); // event k is due at k/rate: count k = 0..=floor
        while run.produced < due {
            stream.publish(run.produced)?;
            run.produced += 1;
        }
        let tick_start = epoch.now_ns();
        let rows = cluster.consume_tick()? as u64;
        let tick_end = epoch.now_ns();
        cumulative += rows;
        consumed.store(cumulative, Ordering::SeqCst);
        run.max_lag_rows = run
            .max_lag_rows
            .max(run.produced.saturating_sub(cumulative));
        run.ticks.push(Tick {
            start_ns: tick_start,
            end_ns: tick_end,
            rows,
            cumulative,
            online_segments: online_segments(cluster),
        });
        // Freshness is attributed by this count: it must be the stream's.
        if cumulative > run.produced {
            return Err(PinotError::Internal(format!(
                "consumed {cumulative} rows but only {} were published",
                run.produced
            )));
        }
        // The next poll is due on the fixed grid; a tick that overran its
        // slot (a seal) is followed at once by the next.
        let next = start_ns + run.ticks.len() as u64 * tick_interval.as_nanos() as u64;
        let now = epoch.now_ns();
        if now < next {
            std::thread::sleep(Duration::from_nanos(next - now));
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A fake engine that stalls once for 50 ms. The queries that came due
    /// during the stall were sent late; timed from when they were due they
    /// must show the wait, although each was served instantly.
    #[test]
    fn open_loop_times_from_due_time() {
        let epoch = Epoch::start();
        let stop = AtomicBool::new(false);
        let served = AtomicUsize::new(0);
        let mut exec = |i: usize| {
            if i == 20 {
                std::thread::sleep(Duration::from_millis(50));
            }
            if served.fetch_add(1, Ordering::Relaxed) == 99 {
                stop.store(true, Ordering::Relaxed);
            }
            Outcome {
                ok: true,
                query_id: 0,
            }
        };
        // 1000/s: ~50 queries come due during the stall.
        let (samples, lag) = open_loop(epoch, 1_000, &stop, &mut exec);
        assert_eq!(samples.len(), 100);
        let latency_ms = |s: &Sample| (s.end_ns - s.start_ns) as f64 / 1e6;
        assert!(latency_ms(&samples[20]) >= 50.0);
        // Query 30 was due 10 ms into the stall: it waited ~40 ms.
        assert!(
            latency_ms(&samples[30]) >= 30.0,
            "query due during the stall shows {} ms",
            latency_ms(&samples[30])
        );
        assert!(lag[30] >= 30_000_000);
        // Before the stall nothing waited that long.
        assert!(samples[..20].iter().all(|s| latency_ms(s) < 30.0));
        // Due times are the fixed schedule, not the send times.
        assert_eq!(samples[30].start_ns - samples[20].start_ns, 10_000_000);
    }

    #[test]
    fn closed_loop_cycles_queries_and_bounds_the_window() {
        let epoch = Epoch::start();
        let exec = |i: usize| {
            std::thread::sleep(Duration::from_micros(200));
            Outcome {
                ok: i != 3,
                query_id: i as u64,
            }
        };
        let (samples, window) = closed_loop(
            epoch,
            2,
            Duration::from_millis(20),
            Duration::from_millis(60),
            5,
            &exec,
        );
        assert!(samples.iter().all(|s| (s.idx as usize) < 5));
        assert!(samples.iter().any(|s| !s.ok));
        let inside = samples.iter().filter(|s| window.holds(s)).count();
        assert!(inside > 0 && inside < samples.len());
        assert!(window.secs() >= 0.06);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_secs();
        let t = Instant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_secs() - before >= 0.03);
    }
}
