//! A minimal std-only HTTP/1.1 front-end for the observability
//! registry: `GET /metrics` answers with
//! [`bichrome_obs::render_prometheus`] — the Prometheus text
//! exposition format — and everything else gets a 404. One thread per
//! connection, `Connection: close`, no keep-alive, no TLS: just
//! enough HTTP for `prometheus` scrape configs, `curl`, and bash's
//! `/dev/tcp`.
//!
//! This is deliberately not part of the line-JSON wire protocol
//! ([`crate::proto`]): scrapers speak HTTP, clients speak the daemon
//! socket, and the two front-ends read the same process-wide
//! registry.

use crate::net::{read_line_capped, Line};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;

/// The longest request or header line read, CRLF excluded. A scrape
/// is a short request line plus a few short headers; 8 KiB is the
/// customary server limit and far above either.
const MAX_HTTP_LINE: usize = 8 << 10;

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves `GET /metrics` from
/// a detached background thread for the life of the process. Returns
/// the effective local address — with port 0 that is where the OS put
/// the listener, which is what the CLI prints for scrapers to find.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn spawn_metrics_http(addr: &str) -> io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(stream) = conn else { continue };
            thread::spawn(move || {
                let _ = handle(stream);
            });
        }
    });
    Ok(local)
}

/// Answers one request on `stream` and closes it. A request or header
/// line over [`MAX_HTTP_LINE`] gets `400 Bad Request`.
fn handle(stream: TcpStream) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut request_line = String::new();
    let mut header = String::new();
    let mut too_long =
        read_line_capped(&mut reader, MAX_HTTP_LINE, &mut request_line)? == Line::TooLong;
    // Drain the headers; nothing in them changes the answer.
    while !too_long {
        match read_line_capped(&mut reader, MAX_HTTP_LINE, &mut header)? {
            Line::Eof => break,
            Line::TooLong => too_long = true,
            Line::Complete if header.trim().is_empty() => break,
            Line::Complete => {}
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = if too_long {
        ("400 Bad Request", "line too long\n".to_string())
    } else if method == "GET" && (path == "/metrics" || path.starts_with("/metrics?")) {
        ("200 OK", bichrome_obs::render_prometheus())
    } else {
        ("404 Not Found", "not found\n".to_string())
    };
    write!(
        writer,
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    /// One blocking request against the endpoint; returns
    /// `(status line, body)`.
    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut conn = TcpStream::connect(addr).expect("connect");
        write!(conn, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("send");
        conn.flush().expect("flush");
        let mut raw = String::new();
        conn.read_to_string(&mut raw).expect("recv");
        let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
        let status = head.lines().next().expect("status line").to_string();
        (status, body.to_string())
    }

    #[test]
    fn metrics_endpoint_serves_parseable_prometheus_text() {
        bichrome_obs::counter("bichrome_http_endpoint_test_total").add(7);
        let addr = spawn_metrics_http("127.0.0.1:0").expect("bind");
        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, "HTTP/1.1 200 OK");
        // Every line is a `# TYPE name kind` comment or a
        // `sample value` pair with a numeric value — the Prometheus
        // text format contract scrapers rely on.
        for line in body.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut words = rest.split_whitespace();
                assert!(words.next().is_some(), "family name: {line}");
                let kind = words.next().expect("family kind");
                assert!(["counter", "histogram"].contains(&kind), "kind: {line}");
            } else {
                let (_series, value) = line.rsplit_once(' ').expect("sample line");
                assert!(value.parse::<f64>().is_ok(), "numeric value: {line}");
            }
        }
        assert!(
            body.contains("# TYPE bichrome_http_endpoint_test_total counter"),
            "{body}"
        );
        assert!(
            body.contains("bichrome_http_endpoint_test_total 7"),
            "{body}"
        );
    }

    #[test]
    fn over_long_lines_get_a_400_and_a_close() {
        let addr = spawn_metrics_http("127.0.0.1:0").expect("bind");
        // An over-long request line, then an over-long header line.
        for head in ["", "GET /metrics HTTP/1.1\r\n"] {
            let mut conn = TcpStream::connect(addr).expect("connect");
            conn.write_all(head.as_bytes()).expect("send head");
            conn.write_all(&[b'a'; MAX_HTTP_LINE + 1])
                .expect("send line");
            // `read_to_string` returns only once the server closes.
            let mut raw = String::new();
            conn.read_to_string(&mut raw).expect("recv");
            assert!(raw.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{raw}");
        }
    }

    #[test]
    fn unknown_paths_get_a_404() {
        let addr = spawn_metrics_http("127.0.0.1:0").expect("bind");
        let (status, _) = get(addr, "/nope");
        assert_eq!(status, "HTTP/1.1 404 Not Found");
    }
}
