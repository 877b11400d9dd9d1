//! A blocking line-JSON client for `udi-serve`: one connection, one
//! outstanding request, socket timeouts, and reply checking.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::stats::digest;

/// One connection to the server. Requests go out one at a time; the reply
/// to each must carry the request's `id` (with more than one server worker,
/// pipelined replies could come back out of order, so the client never
/// pipelines).
pub struct Conn {
    addr: SocketAddr,
    timeout: Duration,
    io: Option<(TcpStream, BufReader<TcpStream>)>,
    next_id: i64,
    line: String,
}

/// How one exchange ended.
#[derive(Debug)]
pub enum Reply {
    /// A reply line arrived; it is left in [`Conn::reply`].
    Line,
    /// The server shed the request (`shed: true`).
    Shed,
    /// No reply within the timeout, or the connection broke. The
    /// connection is dropped and re-opened on the next request.
    Timeout,
}

impl Conn {
    /// A connection to `addr` whose reads and writes give up after
    /// `timeout`. Connects lazily.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Conn {
        Conn {
            addr,
            timeout,
            io: None,
            next_id: 1,
            line: String::with_capacity(1 << 20),
        }
    }

    fn open(&mut self) -> std::io::Result<&mut (TcpStream, BufReader<TcpStream>)> {
        if self.io.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            let reader = BufReader::with_capacity(1 << 18, stream.try_clone()?);
            self.io = Some((stream, reader));
        }
        Ok(self.io.as_mut().expect("opened above"))
    }

    /// The id the next request must carry.
    pub fn next_id(&self) -> i64 {
        self.next_id
    }

    /// Sends `request` (which must carry `"id":`[`next_id`](Conn::next_id))
    /// and waits for one reply line.
    pub fn exchange(&mut self, request: &str) -> Reply {
        self.next_id += 1;
        self.line.clear();
        let mut line = std::mem::take(&mut self.line);
        let result = self.open().and_then(|(stream, reader)| {
            stream.write_all(request.as_bytes())?;
            stream.write_all(b"\n")?;
            match reader.read_line(&mut line)? {
                0 => Err(std::io::ErrorKind::UnexpectedEof.into()),
                _ => Ok(()),
            }
        });
        if line.ends_with('\n') {
            line.pop();
        }
        self.line = line;
        match result {
            Err(_) => {
                self.io = None;
                Reply::Timeout
            }
            Ok(()) if self.line.contains(r#""shed":true"#) => Reply::Shed,
            Ok(()) => Reply::Line,
        }
    }

    /// The last reply line, without its newline.
    pub fn reply(&self) -> &str {
        &self.line
    }
}

/// An `answer` reply taken apart: `{"answers":A,"generation":G,"id":I,
/// "ok":true,"path":P}` is the renderer's exact key order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnswerReply {
    /// Engine generation the answer was computed on.
    pub generation: u64,
    /// Digest of the `answers` array's bytes.
    pub digest: u64,
}

/// Checks that `line` is a successful answer reply to request `id` on
/// `path`, and digests its `answers` bytes. `None` for anything else.
pub fn parse_answer(line: &str, id: i64, path: &str) -> Option<AnswerReply> {
    let body = line.strip_prefix(r#"{"answers":"#)?;
    let cut = body.rfind(r#","generation":"#)?;
    let (answers, tail) = body.split_at(cut);
    let tail = &tail[r#","generation":"#.len()..];
    let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
    let generation: u64 = tail[..digits].parse().ok()?;
    let expected = format!(r#","id":{id},"ok":true,"path":"{path}"}}"#);
    (tail[digits..] == expected).then(|| AnswerReply {
        generation,
        digest: digest(answers.as_bytes()),
    })
}

/// Whether `line` is a successful mutation reply to request `id`:
/// `{"generation":G,"id":I,"ok":true}`.
pub fn is_published(line: &str, id: i64) -> bool {
    let Some(body) = line.strip_prefix(r#"{"generation":"#) else {
        return false;
    };
    let digits = body.bytes().take_while(u8::is_ascii_digit).count();
    digits > 0 && body[digits..] == format!(r#","id":{id},"ok":true}}"#)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_replies_are_checked_field_by_field() {
        let line = r#"{"answers":[{"source":0,"tuples":[]}],"generation":3,"id":7,"ok":true,"path":"pmed"}"#;
        let r = parse_answer(line, 7, "pmed").unwrap();
        assert_eq!(r.generation, 3);
        assert_eq!(r.digest, digest(br#"[{"source":0,"tuples":[]}]"#));
        assert_eq!(parse_answer(line, 8, "pmed"), None, "wrong id");
        assert_eq!(parse_answer(line, 7, "consolidated"), None, "wrong path");
        assert_eq!(
            parse_answer(r#"{"error":"boom","id":7,"ok":false}"#, 7, "pmed"),
            None
        );
    }

    #[test]
    fn mutation_replies_are_matched_to_their_request() {
        assert!(is_published(r#"{"generation":5,"id":2,"ok":true}"#, 2));
        assert!(!is_published(r#"{"generation":5,"id":2,"ok":true}"#, 3));
        assert!(!is_published(r#"{"generation":,"id":2,"ok":true}"#, 2));
        assert!(!is_published(r#"{"error":"x","id":2,"ok":false}"#, 2));
    }
}
