//! What the `bgp-serve` integration suites share (each pulls it in with
//! `mod support;`): one keep-alive HTTP/1.1 client that checks the
//! responses as bytes on the wire, a fresh scratch directory, the small
//! tag-event feed, a `/metrics` sample reader, and the families README's
//! `/metrics` table names.

#![allow(dead_code)]

use bgp_stream::ingest::StreamEvent;
use bgp_types::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A keep-alive HTTP/1.1 client over one `TcpStream` (no HTTP library).
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to `addr`. A read that waits a minute fails the test
    /// instead of hanging it.
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to server");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("set read timeout");
        Client { stream }
    }

    /// `GET path`: status and body.
    pub fn get(&mut self, path: &str) -> (u16, String) {
        let (status, _, body) = self.request("GET", path);
        (status, body)
    }

    /// One request: status, headers (names lower-cased) and body. A HEAD
    /// response carries `Content-Length` but no body bytes.
    pub fn request(&mut self, method: &str, path: &str) -> (u16, Vec<(String, String)>, String) {
        let head = format!("{method} {path} HTTP/1.1\r\nHost: test\r\n\r\n");
        self.stream
            .write_all(head.as_bytes())
            .expect("write request");
        self.read_response(method == "HEAD")
    }

    fn read_response(&mut self, head_only: bool) -> (u16, Vec<(String, String)>, String) {
        let mut buf = Vec::new();
        let mut byte = [0u8; 1];
        while !buf.ends_with(b"\r\n\r\n") {
            let n = self.stream.read(&mut byte).expect("read response head");
            assert!(
                n > 0,
                "EOF mid-head; got {:?}",
                String::from_utf8_lossy(&buf)
            );
            buf.push(byte[0]);
        }
        let head = String::from_utf8(buf).expect("response head is UTF-8");
        let mut lines = head.split("\r\n");
        let status_line = lines.next().expect("status line");
        assert!(status_line.starts_with("HTTP/1.1 "), "{status_line}");
        let status: u16 = status_line[9..12].parse().expect("status code");
        let headers: Vec<(String, String)> = lines
            .filter(|l| !l.is_empty())
            .map(|l| {
                let (k, v) = l.split_once(':').expect("header line");
                (k.to_ascii_lowercase(), v.trim().to_string())
            })
            .collect();
        let length: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .expect("Content-Length present")
            .1
            .parse()
            .expect("numeric Content-Length");
        let mut body = vec![0u8; if head_only { 0 } else { length }];
        self.stream.read_exact(&mut body).expect("read body");
        (
            status,
            headers,
            String::from_utf8(body).expect("body is UTF-8"),
        )
    }

    /// Whether the server has closed the connection cleanly: the next
    /// read is a FIN (end of stream), not bytes, a reset or a timeout.
    pub fn closed_by_server(&mut self) -> bool {
        matches!(self.stream.read(&mut [0u8; 16]), Ok(0))
    }
}

/// A fresh, empty scratch directory under the system temp dir, unique
/// per process and call.
pub fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bgp-serve-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `n` events over five taggers: event `i` is the path `[2 + i % 5, 9]`
/// tagged by its first hop.
pub fn tag_events(n: u64) -> Vec<StreamEvent> {
    (0..n)
        .map(|i| {
            let tag = u32::try_from(2 + i % 5).unwrap();
            StreamEvent::new(
                i,
                PathCommTuple::new(
                    path(&[tag, 9]),
                    CommunitySet::from_iter([AnyCommunity::tag_for(Asn(tag), 100)]),
                ),
            )
        })
        .collect()
}

/// The value of the unlabelled sample `name` on a Prometheus text page.
pub fn metric(page: &str, name: &str) -> Option<f64> {
    page.lines().find_map(|line| {
        let (sample, value) = line.split_once(' ')?;
        (sample == name).then(|| value.trim().parse().ok())?
    })
}

/// Every family README's `/metrics` table names: `{a,b}` groups
/// expanded, a trailing `{label}` dropped.
pub fn readme_metric_families() -> Vec<String> {
    fn expand(pattern: &str) -> Vec<String> {
        let Some(open) = pattern.find('{') else {
            return vec![pattern.to_string()];
        };
        let close = open + pattern[open..].find('}').expect("closed brace");
        let (head, group, tail) = (
            &pattern[..open],
            &pattern[open + 1..close],
            &pattern[close + 1..],
        );
        if !group.contains(',') {
            return vec![head.to_string()];
        }
        group
            .split(',')
            .flat_map(|alt| expand(&format!("{head}{alt}{tail}")))
            .collect()
    }
    let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(readme).expect("read README.md");
    let rows = readme.lines().filter(|l| {
        ["counter", "gauge", "histogram"]
            .iter()
            .any(|k| l.starts_with(&format!("| {k} |")))
    });
    let mut families = Vec::new();
    for row in rows {
        for (i, quoted) in row.split('`').enumerate() {
            if i % 2 == 1 && quoted.starts_with("bgp_") {
                families.extend(expand(quoted));
            }
        }
    }
    families
}
