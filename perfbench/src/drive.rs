//! The load generator: closed-loop readers, the `add_source` publisher,
//! and the after-the-window answer check.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use udi_core::UdiSystem;
use udi_serve::execute_answer;

use crate::client::{is_published, parse_answer, Conn, Reply};
use crate::stats::{digest, Tally};
use crate::workload::{mix, Request};

/// One answer a reader got back: which request, on which engine
/// generation, with which answer bytes.
#[derive(Debug, Clone, Copy)]
pub struct Seen {
    /// Index of the request in its workload's request list.
    pub req: usize,
    /// Engine generation the reply names.
    pub generation: u64,
    /// Digest of the reply's `answers` bytes.
    pub digest: u64,
}

/// What one reader connection observed.
#[derive(Debug, Default)]
pub struct ReaderLog {
    /// Client-observed latency of every attempted request, ms. A failed
    /// request counts as the socket timeout: it missed any latency limit.
    pub lat_ms: Vec<f64>,
    /// Every successful answer.
    pub seen: Vec<Seen>,
    /// How the requests ended.
    pub tally: Tally,
    /// When the last reply arrived.
    pub finished: Option<Instant>,
}

/// How a reader picks its next request.
pub enum Order<'a> {
    /// Rounds over the whole list, each round in a fresh random order
    /// drawn from this seed: every request is sent equally often, so the
    /// mix of cheap and expensive requests does not vary with the seed.
    Rounds(u64),
    /// The next unused entry of a list shared by several readers; the
    /// reader stops when the list runs out.
    Shared(&'a AtomicUsize),
}

/// Closed loop: send a request, wait for its reply, repeat until
/// `deadline`.
pub fn read_loop(
    addr: SocketAddr,
    requests: &[Request],
    order: Order<'_>,
    deadline: Instant,
    timeout: Duration,
) -> ReaderLog {
    let mut conn = Conn::new(addr, timeout);
    let mut log = ReaderLog::default();
    let mut round: Vec<usize> = Vec::new();
    let mut rounds = 0u64;
    while Instant::now() < deadline {
        let idx = match &order {
            Order::Rounds(seed) => {
                if round.is_empty() {
                    round = shuffled(requests.len(), mix(*seed, rounds));
                    rounds += 1;
                }
                round.pop().unwrap_or(0)
            }
            Order::Shared(next) => next.fetch_add(1, Ordering::Relaxed),
        };
        let Some(req) = requests.get(idx) else {
            eprintln!("warning: request stream exhausted after {idx} requests");
            break;
        };
        let id = conn.next_id();
        let line = req.line(id);
        let t = Instant::now();
        let reply = conn.exchange(&line);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match reply {
            Reply::Line => match parse_answer(conn.reply(), id, req.path.name()) {
                Some(a) => {
                    log.tally.ok += 1;
                    log.lat_ms.push(ms);
                    log.seen.push(Seen {
                        req: idx,
                        generation: a.generation,
                        digest: a.digest,
                    });
                }
                None => {
                    if log.tally.errors == 0 {
                        eprintln!("error reply to {line}: {:.300}", conn.reply());
                    }
                    log.tally.errors += 1;
                    log.lat_ms.push(ms.max(timeout.as_secs_f64() * 1e3));
                }
            },
            Reply::Shed => {
                log.tally.shed += 1;
                log.lat_ms.push(timeout.as_secs_f64() * 1e3);
            }
            Reply::Timeout => {
                log.tally.timeouts += 1;
                log.lat_ms.push(timeout.as_secs_f64() * 1e3);
            }
        }
    }
    log.finished = Some(Instant::now());
    log
}

/// `0..n` in a random order drawn from `seed` (Fisher–Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// What the publisher observed.
#[derive(Debug, Default)]
pub struct PublishLog {
    /// Send to `ok` reply, ms: until the new generation is visible.
    pub latency_ms: Vec<f64>,
    /// How the publishes ended.
    pub tally: Tally,
}

/// Sends `count` `add_source` requests back to back over one connection,
/// one outstanding at a time. `head(k)` renders the `k`-th request line up
/// to its id.
pub fn publish_loop(
    addr: SocketAddr,
    head: impl Fn(u64) -> String,
    count: u64,
    timeout: Duration,
) -> PublishLog {
    let mut conn = Conn::new(addr, timeout);
    let mut log = PublishLog::default();
    for k in 0..count {
        let id = conn.next_id();
        let line = format!("{}{id}}}", head(k));
        let sent = Instant::now();
        match conn.exchange(&line) {
            Reply::Line if is_published(conn.reply(), id) => {
                log.latency_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                log.tally.ok += 1;
            }
            Reply::Line => {
                eprintln!("add_source failed: {:.300}", conn.reply());
                log.tally.errors += 1;
            }
            Reply::Shed => log.tally.shed += 1,
            Reply::Timeout => log.tally.timeouts += 1,
        }
    }
    log
}

/// Digest of the library's answer bytes for `req` on `sys` — what the
/// server must have sent for the same snapshot generation.
pub fn expected_digest(sys: &UdiSystem, req: &Request) -> u64 {
    let answers = execute_answer(sys, req.path, &req.query, 0)
        .expect("workload queries are generated to parse");
    digest(answers.render().as_bytes())
}

/// Expected digests keyed by `(request index, engine generation)`.
pub type Expected = BTreeMap<(usize, u64), u64>;

/// Fills `expected` with every request's digest on `sys`'s generation.
pub fn expect_all(sys: &UdiSystem, requests: &[Request], expected: &mut Expected) {
    let generation = sys.engine().generation();
    for (i, req) in requests.iter().enumerate() {
        expected.insert((i, generation), expected_digest(sys, req));
    }
}

/// Counts the answers in `seen` whose bytes differ from the library's on
/// the reply's generation. An answer on a generation with no expected
/// digest (one the checker never read) counts as wrong.
pub fn count_wrong<'a>(seen: impl IntoIterator<Item = &'a Seen>, expected: &Expected) -> u64 {
    seen.into_iter()
        .filter(|s| expected.get(&(s.req, s.generation)) != Some(&s.digest))
        .count() as u64
}

/// A fixed deterministic sample of about `n` answers, spread evenly over
/// the request stream with a stride coprime to the five answer paths so
/// every path is sampled.
pub fn sample<'a>(seen: &[&'a Seen], n: usize) -> Vec<&'a Seen> {
    let mut sorted = seen.to_vec();
    sorted.sort_by_key(|s| s.req);
    let mut stride = (sorted.len() / n.max(1)).max(1);
    if stride.is_multiple_of(5) {
        stride += 1;
    }
    sorted.into_iter().step_by(stride).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seen(req: usize, generation: u64, digest: u64) -> Seen {
        Seen {
            req,
            generation,
            digest,
        }
    }

    #[test]
    fn wrong_answers_are_counted_per_generation() {
        let mut expected = Expected::new();
        expected.insert((0, 1), 10);
        expected.insert((0, 3), 30);
        let log = [
            seen(0, 1, 10),
            seen(0, 3, 30),
            seen(0, 3, 10),
            seen(1, 1, 5),
        ];
        assert_eq!(count_wrong(&log[..2], &expected), 0);
        // A wrong digest, and an answer on a generation nobody read.
        assert_eq!(count_wrong(&log, &expected), 2);
    }

    #[test]
    fn rounds_are_permutations_that_vary_with_the_seed() {
        let a = shuffled(10, 1);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert_eq!(a, shuffled(10, 1));
        assert_ne!(a, shuffled(10, 2));
        assert!(shuffled(0, 1).is_empty());
    }

    #[test]
    fn samples_cover_every_path() {
        let all: Vec<Seen> = (0..500).map(|i| seen(i, 1, 0)).collect();
        let refs: Vec<&Seen> = all.iter().rev().collect();
        let picked = sample(&refs, 50);
        assert!(picked.len() >= 40 && picked.len() <= 50, "{}", picked.len());
        let paths: std::collections::BTreeSet<usize> = picked.iter().map(|s| s.req % 5).collect();
        assert_eq!(paths.len(), 5);
        assert!(picked.windows(2).all(|w| w[0].req < w[1].req));
    }
}
