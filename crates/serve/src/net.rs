//! Transport for the daemon: a Unix-domain or TCP listener with a
//! unified [`Stream`], built on `std::net` / `std::os::unix` only —
//! the protocol is plain line-delimited text, so blocking sockets and
//! a thread per connection are all the machinery required.

use std::fmt;
use std::io::{self, BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

/// Where the daemon listens (or where a client connects).
///
/// Rendered / parsed as `unix:<path>` or `tcp:<host>:<port>`; a bare
/// string containing `/` is taken as a Unix socket path, anything
/// else with a `:` as a TCP address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    /// A Unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP socket (`host:port`).
    Tcp(String),
}

impl Addr {
    /// Parses an address spec.
    ///
    /// # Errors
    ///
    /// Returns a description of why the spec is not an address.
    pub fn parse(spec: &str) -> Result<Addr, String> {
        if let Some(rest) = spec.strip_prefix("unix:") {
            return Ok(Addr::Unix(PathBuf::from(rest)));
        }
        if let Some(rest) = spec.strip_prefix("tcp:") {
            return Ok(Addr::Tcp(rest.to_string()));
        }
        if spec.contains('/') {
            return Ok(Addr::Unix(PathBuf::from(spec)));
        }
        if spec.contains(':') {
            return Ok(Addr::Tcp(spec.to_string()));
        }
        Err(format!(
            "address {spec:?} is neither unix:<path> (or a path containing '/') \
             nor tcp:<host>:<port>"
        ))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::Unix(p) => write!(f, "unix:{}", p.display()),
            Addr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// A bound listener of either family.
#[derive(Debug)]
pub enum Listener {
    /// Unix-domain listener plus its socket path (kept to render the
    /// effective address and to unlink on drop).
    Unix(UnixListener, PathBuf),
    /// TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds `addr`. A stale Unix socket file (a previous daemon that
    /// died without cleanup) is removed first; `tcp:host:0` binds an
    /// ephemeral port — read it back with [`Listener::local_addr`].
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &Addr) -> io::Result<Listener> {
        match addr {
            Addr::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                Ok(Listener::Unix(UnixListener::bind(path)?, path.clone()))
            }
            Addr::Tcp(spec) => Ok(Listener::Tcp(TcpListener::bind(spec)?)),
        }
    }

    /// Accepts one connection.
    ///
    /// # Errors
    ///
    /// Propagates the accept failure.
    pub fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l, _) => Ok(Stream::Unix(l.accept()?.0)),
            Listener::Tcp(l) => Ok(Stream::Tcp(l.accept()?.0)),
        }
    }

    /// The effective address (with the real port for `tcp:host:0`).
    pub fn local_addr(&self) -> Addr {
        match self {
            Listener::Unix(_, path) => Addr::Unix(path.clone()),
            Listener::Tcp(l) => Addr::Tcp(
                l.local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "?".to_string()),
            ),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One accepted or dialed connection.
#[derive(Debug)]
pub enum Stream {
    /// Unix-domain stream.
    Unix(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl Stream {
    /// Dials `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: &Addr) -> io::Result<Stream> {
        match addr {
            Addr::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
            Addr::Tcp(spec) => Ok(Stream::Tcp(TcpStream::connect(spec)?)),
        }
    }

    /// An independently owned handle to the same connection (read on
    /// one, write on the other).
    ///
    /// # Errors
    ///
    /// Propagates the underlying `try_clone` failure.
    pub fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Unix(s) => Ok(Stream::Unix(s.try_clone()?)),
            Stream::Tcp(s) => Ok(Stream::Tcp(s.try_clone()?)),
        }
    }

    /// Arms (or with `None` disarms) both the read and write timeout
    /// on this connection. A blocked read/write past the deadline
    /// fails with `WouldBlock`/`TimedOut` instead of pinning its
    /// thread forever — the daemon sets this on every accepted
    /// connection ([`crate::DaemonConfig::io_timeout`]) so a silent
    /// or severed peer costs a handler thread only briefly.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure (`timeout` of zero is
    /// rejected by the OS; pass `None` to disable).
    pub fn set_timeouts(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
            Stream::Tcp(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
        }
    }

    /// Switches the connection between blocking and non-blocking
    /// mode. The daemon flips it for one read to check whether a
    /// held `lease`'s peer is still there.
    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_nonblocking(nonblocking),
            Stream::Tcp(s) => s.set_nonblocking(nonblocking),
        }
    }
}

/// Writes `line` and its terminating newline in one `write_all`.
/// Sent as two writes, the newline leaves as a second small segment
/// that Nagle's algorithm holds until the peer's delayed ACK — on a
/// kept connection, a stall of tens of milliseconds per message.
pub(crate) fn write_line(stream: &mut impl Write, line: &str) -> io::Result<()> {
    stream.write_all(format!("{line}\n").as_bytes())
}

/// What [`read_line_capped`] read.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Line {
    /// The peer closed the connection before sending a byte.
    Eof,
    /// One line, its newline included (or a last line cut by EOF).
    Complete,
    /// More than `cap` bytes arrived without a newline; the rest of
    /// the line is still unread.
    TooLong,
}

/// Reads one line of at most `cap` bytes, newline excluded, into
/// `line` (cleared first). The read goes through [`Read::take`], so a
/// peer that never sends a newline grows `line` to `cap + 1` bytes
/// and no further.
pub(crate) fn read_line_capped(
    reader: &mut impl BufRead,
    cap: usize,
    line: &mut String,
) -> io::Result<Line> {
    line.clear();
    let n = reader.by_ref().take(cap as u64 + 1).read_line(line)?;
    Ok(if n == 0 {
        Line::Eof
    } else if n <= cap || line.ends_with('\n') {
        Line::Complete
    } else {
        Line::TooLong
    })
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_specs_round_trip() {
        assert_eq!(
            Addr::parse("unix:/tmp/x.sock").expect("parses"),
            Addr::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert_eq!(
            Addr::parse("/tmp/x.sock").expect("bare path"),
            Addr::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert_eq!(
            Addr::parse("tcp:127.0.0.1:7777").expect("parses"),
            Addr::Tcp("127.0.0.1:7777".to_string())
        );
        assert_eq!(
            Addr::parse("127.0.0.1:7777").expect("bare host:port"),
            Addr::Tcp("127.0.0.1:7777".to_string())
        );
        assert!(Addr::parse("nonsense").is_err());
        assert_eq!(
            Addr::parse("unix:/tmp/x.sock").expect("parses").to_string(),
            "unix:/tmp/x.sock"
        );
    }

    #[test]
    fn unix_listener_cleans_up_and_replaces_stale_sockets() {
        let path =
            std::env::temp_dir().join(format!("bichrome-net-test-{}.sock", std::process::id()));
        let addr = Addr::Unix(path.clone());
        let l = Listener::bind(&addr).expect("bind");
        assert!(path.exists());
        drop(l);
        assert!(!path.exists(), "socket file unlinked on drop");
        // A stale file (daemon killed hard) must not block a rebind.
        std::fs::write(&path, b"stale").expect("plant stale file");
        let l = Listener::bind(&addr).expect("rebind over stale");
        drop(l);
    }

    #[test]
    fn capped_lines_stop_at_the_cap() {
        let read = |input: &[u8]| {
            let mut reader = io::BufReader::new(input);
            let mut line = String::new();
            let got = read_line_capped(&mut reader, 4, &mut line).expect("read");
            (got, line)
        };
        assert_eq!(read(b""), (Line::Eof, String::new()));
        assert_eq!(read(b"abcd\nz"), (Line::Complete, "abcd\n".to_string()));
        assert_eq!(read(b"ab"), (Line::Complete, "ab".to_string()));
        assert_eq!(read(b"abcde\n"), (Line::TooLong, "abcde".to_string()));
    }

    #[test]
    fn tcp_round_trip_on_ephemeral_port() {
        let l = Listener::bind(&Addr::parse("tcp:127.0.0.1:0").expect("parse")).expect("bind");
        let addr = l.local_addr();
        let t = std::thread::spawn(move || {
            let mut conn = l.accept().expect("accept");
            let mut buf = [0u8; 4];
            conn.read_exact(&mut buf).expect("read");
            conn.write_all(&buf).expect("echo");
        });
        let mut c = Stream::connect(&addr).expect("connect");
        c.write_all(b"ping").expect("send");
        let mut buf = [0u8; 4];
        c.read_exact(&mut buf).expect("recv");
        assert_eq!(&buf, b"ping");
        t.join().expect("server thread");
    }
}
