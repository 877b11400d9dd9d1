//! The TCP front end: thread-per-core blocking workers behind a bounded
//! admission queue.
//!
//! One detached reader thread per connection parses lines off the socket
//! and offers them to a bounded `JobQueue`. A fixed pool of worker
//! threads (default: one per core) drains the queue, dispatches through
//! [`crate::state::handle_into`] (which writes a repeat of a query on one
//! tenant record from the record's answer cache), and writes the reply
//! back on the connection. When the queue is full the *reader* writes the load-shed
//! response directly — admission control rejects at the edge instead of
//! letting latency collapse under unbounded buffering.
//!
//! The wire contract:
//!
//! - **`TCP_NODELAY`** is set on every accepted stream. A reply is one
//!   write, so there is nothing for Nagle's algorithm to coalesce; left on,
//!   it holds a reply's short last segment until the client's delayed ACK
//!   (~40 ms on Linux).
//! - **One write per reply.** Each reply is rendered whole into a buffer
//!   ending in `\n` (workers reuse one buffer across requests; answers
//!   stream straight into it) and leaves through a single `write_all`.
//! - **Replies in request order per connection.** A connection has at most
//!   one job in flight: its write half travels with the job and comes back
//!   to the reader once the reply is written, and only then does the reader
//!   offer its next line (which it may already have read). Pipelined
//!   replies therefore never overtake each other, and one pipelining
//!   client holds at most one queue slot.
//!
//! Mutations (`add_source`, `apply_feedback`) never run on the worker
//! pool: each gets a detached thread so a multi-second snapshot rebuild
//! cannot sit ahead of reads in the queue. Readers keep answering on the
//! old snapshot for the whole rebuild and only ever see atomic publishes.
//!
//! A request line is read with a length cap (`MAX_LINE_BYTES`, 128 KiB):
//! a line that runs past it is answered with [`RequestError::TooLong`] and
//! the connection is closed, so a client that never sends a newline
//! cannot grow server memory without bound.
//!
//! No clocks are read here: latency is the client's to measure (the bench
//! harness owns the stopwatch), and the serving path stays inside the
//! workspace's no-raw-time perimeter.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{Builder, JoinHandle};

use crate::proto::{error_response, parse_request, shed_response, Op, Request, RequestError};
use crate::state::{handle_into, ServeState};

/// Longest request line the server reads, newline excluded: 128 KiB.
/// The largest request the bench harnesses send is an `add_source` of 8
/// corpus rows, about 1 KiB, so this leaves over 100× headroom.
const MAX_LINE_BYTES: usize = 128 * 1024;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address. Port 0 picks a free port; read it back via
    /// [`Server::addr`].
    pub addr: String,
    /// Worker threads. `0` means one per available core.
    pub workers: usize,
    /// Admission-queue capacity; requests beyond it are shed.
    pub queue_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 0,
            queue_cap: 256,
        }
    }
}

/// One admitted request: the raw line plus its connection's write half,
/// lent to whichever thread answers it and handed back through `done` once
/// the reply is written. Dropping a job unanswered hangs the connection up.
struct Job {
    line: String,
    out: TcpStream,
    done: Sender<TcpStream>,
}

/// Outcome of offering a job to the queue.
enum Push {
    Queued,
    Full(Job),
    Closed,
}

/// Bounded MPMC queue: `Mutex<VecDeque>` + `Condvar`, capacity-checked at
/// push so admission control happens before any worker is involved.
struct JobQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    cap: usize,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new(cap: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    fn try_push(&self, job: Job) -> Push {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.closed {
            return Push::Closed;
        }
        if inner.jobs.len() >= self.cap {
            return Push::Full(job);
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.ready.notify_one();
        Push::Queued
    }

    /// Blocks until a job is available; `None` once sealed and drained.
    // Named `next_job` (not `pop`) for the same aliasing reason as `seal`:
    // `.pop()` is everywhere in string/vec code, and this method blocks.
    fn next_job(&self) -> Option<Job> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    // Named `seal` (not `close`) so the workspace call graph's
    // method-name over-approximation cannot alias it with the ubiquitous
    // `udi_obs::Span::close` — the hot-path certificate would otherwise
    // pull the whole shutdown path into every span-using summary.
    fn seal(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.closed = true;
        drop(inner);
        self.ready.notify_all();
    }
}

/// A running server. Dropping it shuts the listener and workers down.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    queue: Arc<JobQueue>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobQueue").field("cap", &self.cap).finish()
    }
}

impl Server {
    /// Binds, spawns the accept loop and the worker pool, and returns.
    pub fn start(state: ServeState, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let queue = Arc::new(JobQueue::new(config.queue_cap));
        let stop = Arc::new(AtomicBool::new(false));

        let worker_count = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(2)
        } else {
            config.workers
        };
        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let queue = queue.clone();
            let state = state.clone();
            let handle = Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&state, &queue))?;
            workers.push(handle);
        }

        let accept = {
            let queue = queue.clone();
            let state = state.clone();
            let stop = stop.clone();
            Builder::new()
                .name("serve-accept".to_owned())
                .spawn(move || accept_loop(&listener, &state, &queue, &stop))?
        };

        Ok(Server {
            addr,
            stop,
            queue,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the queue, and joins the worker pool.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.queue.seal();
        // Unblock the accept loop with a throwaway connection.
        TcpStream::connect(self.addr).ok();
        if let Some(accept) = self.accept.take() {
            accept.join().ok();
        }
        for worker in self.workers.drain(..) {
            worker.join().ok();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    state: &ServeState,
    queue: &Arc<JobQueue>,
    stop: &Arc<AtomicBool>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        state.recorder().count("serve.connections", 1);
        tune(&stream, state);
        let state = state.clone();
        let queue = queue.clone();
        // Reader threads are detached: they exit when the client hangs up
        // or the queue closes, so shutdown need not chase them.
        Builder::new()
            .name("serve-conn".to_owned())
            .spawn(move || connection_loop(stream, &state, &queue))
            .ok();
    }
}

/// Puts an accepted stream under the wire contract: `TCP_NODELAY` on.
fn tune(stream: &TcpStream, state: &ServeState) {
    if stream.set_nodelay(true).is_err() {
        state.recorder().count("serve.nodelay_error", 1);
    }
}

/// Where a connection's write half is between lines.
enum WriteHalf {
    /// With the reader: no job in flight.
    Idle(TcpStream),
    /// Lent to the job in flight; it comes back here once the reply is
    /// written, and never if the job is dropped unanswered.
    Lent(Receiver<TcpStream>),
}

/// One bounded read off a connection.
enum LineRead {
    /// A line, without its `\n` (or `\r\n`); also the unterminated tail
    /// before EOF.
    Line(String),
    /// [`MAX_LINE_BYTES`] bytes went by without a newline.
    TooLong,
    /// EOF, a read error, or a line that is not UTF-8.
    End,
}

/// Reads the next line into `buf`, consuming at most [`MAX_LINE_BYTES`]
/// + 1 bytes of it.
fn read_line_capped<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> LineRead {
    buf.clear();
    let limit = MAX_LINE_BYTES as u64 + 1;
    match reader.by_ref().take(limit).read_until(b'\n', buf) {
        Ok(0) | Err(_) => return LineRead::End,
        Ok(_) => {}
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_LINE_BYTES {
        return LineRead::TooLong;
    }
    match String::from_utf8(std::mem::take(buf)) {
        Ok(line) => LineRead::Line(line),
        Err(_) => LineRead::End,
    }
}

fn connection_loop(stream: TcpStream, state: &ServeState, queue: &Arc<JobQueue>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut half = WriteHalf::Idle(write_half);
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        let line = match read_line_capped(&mut reader, &mut buf) {
            LineRead::Line(line) => Ok(line),
            LineRead::TooLong => Err(RequestError::TooLong(MAX_LINE_BYTES)),
            LineRead::End => break,
        };
        if line.as_deref().is_ok_and(|l| l.trim().is_empty()) {
            continue;
        }
        // One job in flight: the write half goes with the job, and the
        // next line, though read meanwhile, is offered only once it comes
        // back, so replies keep request order. A client that waits for
        // each reply sends its next line after the write, which the worker
        // follows at once with the hand-back, so the reader nearly always
        // sleeps once per request (on the socket), not twice.
        let out = match half {
            WriteHalf::Idle(out) => out,
            WriteHalf::Lent(returned) => match returned.recv() {
                Ok(out) => out,
                Err(_) => break,
            },
        };
        let line = match line {
            Ok(line) => line,
            Err(too_long) => {
                // The rest of the line is unread, so the stream cannot be
                // resynchronized: answer, then hang up.
                let mut out = out;
                state.recorder().count("serve.bad_request", 1);
                let mut reply = error_response(None, &too_long.to_string()).render();
                reply.push('\n');
                if write_reply(&mut out, &reply).is_ok() {
                    out.shutdown(Shutdown::Write).ok();
                }
                break;
            }
        };
        let (done, returned) = mpsc::channel();
        half = match queue.try_push(Job { line, out, done }) {
            Push::Queued => WriteHalf::Lent(returned),
            Push::Full(job) => {
                // Admission control: reject at the edge, synchronously.
                let mut out = job.out;
                state.recorder().count("serve.shed", 1);
                let mut reply = shed_response().render();
                reply.push('\n');
                if write_reply(&mut out, &reply).is_err() {
                    break;
                }
                WriteHalf::Idle(out)
            }
            Push::Closed => break,
        };
    }
}

fn worker_loop(state: &ServeState, queue: &Arc<JobQueue>) {
    let mut reply = String::new();
    while let Some(job) = queue.next_job() {
        match parse_request(&job.line) {
            // Mutations rebuild a whole snapshot — minutes of CPU at large
            // corpus sizes. Running them on the worker pool would put a
            // refresh ahead of reads in the queue (head-of-line blocking),
            // so they get their own detached thread; the tenant's mutate
            // lock already serializes concurrent rebuilds.
            Ok(req) if matches!(req.op, Op::AddSource | Op::ApplyFeedback) => {
                let owned = state.clone();
                let spawned = Builder::new()
                    .name("serve-mutate".to_owned())
                    .spawn(move || {
                        let mut reply = String::new();
                        answer_job(&owned, Ok(req), job, &mut reply);
                    });
                if spawned.is_err() {
                    state.recorder().count("serve.write_error", 1);
                }
            }
            parsed => answer_job(state, parsed, job, &mut reply),
        }
    }
}

/// Answers one job: renders the reply into `reply`, writes it, and hands
/// the connection back to its reader.
fn answer_job(
    state: &ServeState,
    parsed: Result<Request, RequestError>,
    job: Job,
    reply: &mut String,
) {
    let Job { mut out, done, .. } = job;
    if reply_to(state, parsed, reply, &mut out).is_err() {
        state.recorder().count("serve.write_error", 1);
    }
    // The reader is parked waiting for this; if it is gone, so is the
    // connection.
    done.send(out).ok();
}

/// Renders the reply to one parsed line into `reply` (cleared first, so a
/// worker reuses one buffer) and writes it to `out` in one write.
fn reply_to<W: Write>(
    state: &ServeState,
    parsed: Result<Request, RequestError>,
    reply: &mut String,
    out: &mut W,
) -> io::Result<()> {
    reply.clear();
    respond(state, parsed, reply);
    reply.push('\n');
    write_reply(out, reply)
}

/// Appends the response to one parsed line to `out`. Malformed lines
/// become error responses rather than dropped connections, so one bad
/// client request cannot poison a pipelined stream.
fn respond(state: &ServeState, parsed: Result<Request, RequestError>, out: &mut String) {
    match parsed {
        Ok(req) => handle_into(state, &req, out),
        Err(e) => {
            state.recorder().count("serve.bad_request", 1);
            error_response(None, &e.to_string()).render_into(out);
        }
    }
}

/// Parses and dispatches one request line, returning the response line
/// (without the trailing newline) — the bytes a server connection gets.
pub fn handle_line(state: &ServeState, line: &str) -> String {
    let mut out = String::new();
    respond(state, parse_request(line), &mut out);
    out
}

/// Writes one reply, which already ends in `\n`, with a single
/// `write_all`: the reply leaves as one buffer, never as a body plus a
/// trailing one-byte segment.
fn write_reply<W: Write>(out: &mut W, reply: &str) -> io::Result<()> {
    out.write_all(reply.as_bytes())?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::io::BufRead;

    fn tiny_state() -> ServeState {
        use udi_core::{UdiConfig, UdiSystem};
        use udi_store::{Catalog, Table};
        let mut catalog = Catalog::new();
        let mut t = Table::new("s1", ["name", "phone"]);
        t.push_raw_row(["Alice", "123"]).unwrap();
        catalog.add_source(t).unwrap();
        let state = ServeState::new();
        state.register_tenant(
            "t0",
            UdiSystem::setup(catalog, UdiConfig::default()).unwrap(),
        );
        state
    }

    fn roundtrip(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        let mut stream = TcpStream::connect(addr).unwrap();
        for line in lines {
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
        }
        stream.flush().unwrap();
        let reader = BufReader::new(stream);
        reader
            .lines()
            .take(lines.len())
            .map(|l| l.unwrap())
            .collect()
    }

    #[test]
    fn serves_answers_over_tcp() {
        let state = tiny_state();
        let server = Server::start(state.clone(), ServerConfig::default()).unwrap();
        let replies = roundtrip(
            server.addr(),
            &[
                r#"{"op":"answer","tenant":"t0","id":1,"query":"SELECT name FROM people WHERE name = 'Alice'"}"#,
                r#"{"op":"stats","tenant":"t0","id":2}"#,
            ],
        );
        assert_eq!(replies.len(), 2);
        assert!(replies[0].contains(r#""ok":true"#), "{}", replies[0]);
        assert!(replies[0].contains(r#""id":1"#));
        assert!(replies[1].contains(r#""id":2"#));
    }

    /// Replies to 50 pipelined lines of mixed kinds — answers, stats,
    /// unparseable queries and malformed lines — come back in request
    /// order even with four workers racing for the queue.
    #[test]
    fn pipelined_replies_keep_request_order() {
        let state = tiny_state();
        let config = ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        };
        let server = Server::start(state, config).unwrap();
        let mut lines = Vec::new();
        let mut expected = Vec::new();
        for id in 0..50i64 {
            let (line, echoed) = match id % 4 {
                0 => (
                    format!(
                        r#"{{"op":"answer","tenant":"t0","id":{id},"query":"SELECT name FROM people"}}"#
                    ),
                    Some(id),
                ),
                1 => (
                    format!(r#"{{"op":"stats","tenant":"t0","id":{id}}}"#),
                    Some(id),
                ),
                2 => (
                    format!(r#"{{"op":"answer","tenant":"t0","id":{id},"query":"SELEKT"}}"#),
                    Some(id),
                ),
                _ => (format!("not json {id}"), None),
            };
            lines.push(line);
            expected.push(echoed);
        }
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let replies = roundtrip(server.addr(), &refs);
        let ids: Vec<Option<i64>> = replies
            .iter()
            .map(|r| {
                crate::json::parse(r)
                    .unwrap()
                    .get("id")
                    .and_then(Json::as_i64)
            })
            .collect();
        assert_eq!(ids, expected);
        for (i, reply) in replies.iter().enumerate() {
            let ok = i % 4 < 2;
            assert_eq!(reply.contains(r#""ok":true"#), ok, "reply {i}: {reply}");
        }
    }

    /// A writer that records how many `write` calls it saw.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Every reply kind leaves in exactly one `write` of a buffer that
    /// ends in its only newline, with the bytes `handle_line` returns (on a
    /// twin state with the same history, so `stats` counters agree). One
    /// buffer is reused across all of them, as a worker does.
    #[test]
    fn each_reply_is_one_write_ending_in_a_newline() {
        let state = tiny_state();
        let twin = tiny_state();
        let mut reply = String::new();
        for line in [
            r#"{"op":"answer","tenant":"t0","id":1,"query":"SELECT name FROM people"}"#,
            r#"{"op":"answer","tenant":"t0","query":"SELECT name, phone FROM people"}"#,
            r#"{"op":"stats","tenant":"t0","id":2}"#,
            r#"{"op":"prepare","tenant":"t0","id":3,"query":"SELECT name FROM people"}"#,
            r#"{"op":"answer","tenant":"ghost","id":4,"query":"SELECT name FROM people"}"#,
            r#"{"op":"answer","tenant":"t0","id":5,"query":"SELEKT"}"#,
            "not json",
        ] {
            let mut out = CountingWriter::default();
            reply_to(&state, parse_request(line), &mut reply, &mut out).unwrap();
            assert_eq!(out.writes, 1, "{line}");
            let text = String::from_utf8(out.bytes).unwrap();
            assert!(text.ends_with('\n'), "{text}");
            assert_eq!(text.matches('\n').count(), 1, "{text}");
            assert_eq!(text.trim_end_matches('\n'), handle_line(&twin, line));
        }
    }

    /// An accepted stream runs with `TCP_NODELAY`; without it each reply's
    /// short last segment waits for the client's delayed ACK.
    #[test]
    fn accepted_streams_have_nodelay() {
        let state = tiny_state();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        tune(&accepted, &state);
        assert!(accepted.nodelay().unwrap());
        assert_eq!(state.counters().get("serve.nodelay_error"), 0);
    }

    #[test]
    fn malformed_lines_get_error_responses_not_hangups() {
        let state = tiny_state();
        let server = Server::start(state.clone(), ServerConfig::default()).unwrap();
        let replies = roundtrip(
            server.addr(),
            &[
                "this is not json",
                r#"{"op":"answer","tenant":"t0","id":9,"query":"SELECT name FROM people"}"#,
            ],
        );
        assert!(replies[0].contains(r#""ok":false"#));
        assert!(replies[1].contains(r#""id":9"#), "{}", replies[1]);
        assert!(state.counters().get("serve.bad_request") >= 1);
    }

    /// A client that sends `MAX_LINE_BYTES + 1` bytes with no newline gets
    /// a typed error reply and a closed connection; a second client on
    /// the same server is still answered.
    #[test]
    fn over_long_line_is_refused_and_the_server_keeps_serving() {
        let state = tiny_state();
        let server = Server::start(state.clone(), ServerConfig::default()).unwrap();
        let mut hog = TcpStream::connect(server.addr()).unwrap();
        hog.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).unwrap();
        hog.flush().unwrap();
        let mut reader = BufReader::new(hog);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let expected = error_response(None, &RequestError::TooLong(MAX_LINE_BYTES).to_string());
        assert_eq!(reply.trim_end(), expected.render());
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "closed: {rest}");

        let replies = roundtrip(server.addr(), &[r#"{"op":"stats","tenant":"t0","id":7}"#]);
        assert!(replies[0].contains(r#""id":7"#), "{}", replies[0]);
        assert!(state.counters().get("serve.bad_request") >= 1);
    }

    /// Lines are split on `\n` and `\r\n`; a line of exactly the cap is
    /// read whole, one byte more is refused.
    #[test]
    fn capped_reads_split_lines_and_stop_at_the_cap() {
        let mut input: &[u8] = b"a\r\nb\n\ntail";
        let mut buf = Vec::new();
        let mut lines = Vec::new();
        while let LineRead::Line(l) = read_line_capped(&mut input, &mut buf) {
            lines.push(l);
        }
        assert_eq!(lines, ["a", "b", "", "tail"]);

        let mut exact = vec![b'y'; MAX_LINE_BYTES];
        exact.push(b'\n');
        let mut input: &[u8] = &exact;
        assert!(
            matches!(read_line_capped(&mut input, &mut buf), LineRead::Line(l) if l.len() == MAX_LINE_BYTES)
        );
        let over = vec![b'y'; MAX_LINE_BYTES + 1];
        let mut input: &[u8] = &over;
        assert!(matches!(
            read_line_capped(&mut input, &mut buf),
            LineRead::TooLong
        ));
    }

    #[test]
    fn shutdown_is_idempotent_and_joins_cleanly() {
        let state = tiny_state();
        let mut server = Server::start(state, ServerConfig::default()).unwrap();
        server.shutdown();
        server.shutdown();
    }
}
