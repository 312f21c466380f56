//! Pluggable byte transports for the campaign wire protocol.
//!
//! The campaign service speaks newline-delimited JSON envelopes
//! ([`crate::envelope`]) over a *bidirectional byte stream* — it does
//! not care whether that stream is an `AF_UNIX` socket on one host or a
//! TCP connection across a fleet of measurement machines. This module
//! owns that indifference:
//!
//! - [`Endpoint`] — a parseable/displayable address (`unix:/path` or
//!   `tcp:host:port`), the one form endpoints take in CLIs, configs,
//!   and fleet lists;
//! - [`Stream`] — a bidirectional, cloneable byte stream with
//!   **read-half shutdown** (the primitive the service's shutdown drain
//!   needs: wake a peer parked in a blocking read without cutting off a
//!   response still being written);
//! - [`Listener`] — accepts streams and knows its *resolved* local
//!   endpoint (so `tcp:127.0.0.1:0` gains its real port after bind)
//!   plus a self-dialable form ([`Listener::dial_endpoint`]: wildcard
//!   hosts become loopback);
//! - [`Transport`] — pairs the two with `bind`/`connect`, implemented
//!   by [`UnixTransport`], [`TcpTransport`], and the scheme-dispatching
//!   [`AnyTransport`].
//!
//! The traits are deliberately minimal: exactly the surface the service
//! stack uses (`Read` + `Write`, a descriptor to poll, `try_clone`,
//! `shutdown_read`, blocking `accept`), nothing speculative. Code generic
//! over [`Transport`] is oblivious to the address family; code that must
//! pick one at runtime (a `--listen` flag, a `--fleet` list) uses
//! [`AnyTransport`], which dispatches on the endpoint's scheme. The
//! module, like the reactor and the daemon built on it, targets unix
//! (macOS hosts, Linux CI).
//!
//! ## Addressing
//!
//! ```
//! use oranges_harness::transport::Endpoint;
//!
//! // The two schemes, round-tripping through their display form:
//! let tcp: Endpoint = "tcp:node-a.local:7771".parse()?;
//! assert_eq!(tcp.to_string(), "tcp:node-a.local:7771");
//! let unix: Endpoint = "unix:/tmp/oranges.sock".parse()?;
//! assert_eq!(unix.to_string(), "unix:/tmp/oranges.sock");
//! assert_eq!(unix.scheme(), "unix");
//! # Ok::<(), oranges_harness::transport::EndpointParseError>(())
//! ```
//!
//! ## A loopback round trip
//!
//! ```
//! use oranges_harness::transport::{Listener, Stream, TcpTransport, Transport};
//! use std::io::{Read, Write};
//!
//! // Port 0: the OS picks; the listener reports the resolved endpoint.
//! let listener = TcpTransport::bind(&"tcp:127.0.0.1:0".parse().unwrap())?;
//! let endpoint = listener.local_endpoint().clone();
//!
//! let echo = std::thread::spawn(move || -> std::io::Result<()> {
//!     let mut stream = listener.accept()?;
//!     let mut byte = [0u8; 1];
//!     stream.read_exact(&mut byte)?;
//!     stream.write_all(&byte)
//! });
//!
//! let mut client = TcpTransport::connect(&endpoint)?;
//! client.write_all(b"!")?;
//! let mut back = [0u8; 1];
//! client.read_exact(&mut back)?;
//! assert_eq!(&back, b"!");
//! echo.join().unwrap()?;
//! # Ok::<(), std::io::Error>(())
//! ```

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsFd, BorrowedFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// A malformed endpoint string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointParseError(String);

impl EndpointParseError {
    fn new(message: impl Into<String>) -> Self {
        EndpointParseError(message.into())
    }
}

impl fmt::Display for EndpointParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "endpoint error: {}", self.0)
    }
}

impl std::error::Error for EndpointParseError {}

/// A transport address: where a service listens or a client dials.
///
/// The textual form is `scheme:rest` — `unix:/path/to/socket` or
/// `tcp:host:port` — and [`FromStr`]/[`Display`](fmt::Display) are
/// exact inverses for any endpoint whose path is valid UTF-8 (a
/// property `crates/harness/tests/props.rs` checks by construction).
///
/// `tcp` hosts may be names (`node-a.local`), IPv4 literals, or
/// bracketed IPv6 literals (`tcp:[::1]:7771` — the port is whatever
/// follows the *last* colon). Port `0` is valid at bind time and means
/// "let the OS pick"; [`Listener::local_endpoint`] reports what it
/// picked.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A Unix-domain socket path (`unix:/path`).
    Unix(PathBuf),
    /// A TCP authority (`tcp:host:port`), stored as `host:port`.
    Tcp(String),
}

impl Endpoint {
    /// The URI scheme: `"unix"` or `"tcp"`.
    pub fn scheme(&self) -> &'static str {
        match self {
            Endpoint::Unix(_) => "unix",
            Endpoint::Tcp(_) => "tcp",
        }
    }

    /// Dial this endpoint with the scheme-matching transport.
    ///
    /// Shorthand for [`AnyTransport::connect`].
    pub fn connect(&self) -> io::Result<AnyStream> {
        AnyTransport::connect(self)
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(authority) => write!(f, "tcp:{authority}"),
        }
    }
}

impl FromStr for Endpoint {
    type Err = EndpointParseError;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        if let Some(path) = text.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(EndpointParseError::new("unix endpoint has an empty path"));
            }
            return Ok(Endpoint::Unix(PathBuf::from(path)));
        }
        if let Some(authority) = text.strip_prefix("tcp:") {
            let (host, port) = authority.rsplit_once(':').ok_or_else(|| {
                EndpointParseError::new(format!(
                    "tcp endpoint '{authority}' needs host:port (the port follows the last ':')"
                ))
            })?;
            if host.is_empty() {
                return Err(EndpointParseError::new(format!(
                    "tcp endpoint '{authority}' has an empty host"
                )));
            }
            if port.parse::<u16>().is_err() {
                return Err(EndpointParseError::new(format!(
                    "tcp endpoint '{authority}' has a bad port '{port}' (want 0-65535)"
                )));
            }
            return Ok(Endpoint::Tcp(authority.to_string()));
        }
        Err(EndpointParseError::new(format!(
            "endpoint '{text}' has no scheme: want unix:/path or tcp:host:port"
        )))
    }
}

// Bare paths are unambiguous Unix-socket addresses; these conversions
// let path-shaped call sites (`ServiceConfig::new(&socket_path)`) stay
// terse. Strings are *not* converted implicitly — parse them, so a typo
// in a scheme is an error instead of a socket file named "tcp:…".
impl From<&Path> for Endpoint {
    fn from(path: &Path) -> Self {
        Endpoint::Unix(path.to_path_buf())
    }
}

impl From<PathBuf> for Endpoint {
    fn from(path: PathBuf) -> Self {
        Endpoint::Unix(path)
    }
}

impl From<&PathBuf> for Endpoint {
    fn from(path: &PathBuf) -> Self {
        Endpoint::Unix(path.clone())
    }
}

impl From<&Endpoint> for Endpoint {
    fn from(endpoint: &Endpoint) -> Self {
        endpoint.clone()
    }
}

fn scheme_mismatch(transport: &str, endpoint: &Endpoint) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!(
            "{transport} transport cannot use {endpoint} (scheme '{}')",
            endpoint.scheme()
        ),
    )
}

/// A bidirectional byte stream a service connection runs over.
///
/// `try_clone` yields an independently owned handle to the *same*
/// connection (one side may read while the other writes — the service
/// splits every connection this way). `shutdown_read` half-closes:
/// a peer parked in a blocking read on the other handle wakes with EOF,
/// while writes on this connection keep working — the primitive behind
/// the service's shutdown drain.
///
/// A stream is also a descriptor ([`AsFd`]): the reactor waits on its
/// readiness with `poll(2)`.
pub trait Stream: Read + Write + AsFd + Send + Sized + 'static {
    /// A second owned handle to the same underlying connection.
    fn try_clone(&self) -> io::Result<Self>;

    /// Close the read half only; in-flight writes continue.
    fn shutdown_read(&self) -> io::Result<()>;

    /// Switch the connection between blocking and nonblocking I/O.
    ///
    /// In nonblocking mode `read`/`write` return
    /// [`io::ErrorKind::WouldBlock`] instead of parking the calling
    /// thread — the mode every stream registered with the reactor
    /// ([`crate::reactor`]) runs in. The mode is a property of the
    /// connection, not the handle: it applies to clones too.
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;
}

/// Accepts inbound [`Stream`]s for one bound endpoint.
pub trait Listener: Send + Sync + Sized + 'static {
    /// The stream type this listener produces.
    type Stream: Stream;

    /// Block until a peer connects.
    fn accept(&self) -> io::Result<Self::Stream>;

    /// The *resolved* local endpoint, faithful to the bind: port 0
    /// becomes the real port, but a wildcard host (`0.0.0.0`/`::`)
    /// stays a wildcard — this is the address to report to operators
    /// ("listening on all interfaces"), not necessarily one to dial.
    fn local_endpoint(&self) -> &Endpoint;

    /// An endpoint *this host* can dial to reach the listener: like
    /// [`local_endpoint`](Listener::local_endpoint), but with a
    /// wildcard host replaced by a loopback literal. This is what the
    /// service's shutdown self-dial uses; for listeners whose local
    /// endpoint is already dialable (unix paths, concrete hosts) the
    /// two are the same, which the default method reflects.
    fn dial_endpoint(&self) -> &Endpoint {
        self.local_endpoint()
    }

    /// Release any on-disk artifacts of the bind (the Unix listener's
    /// socket file). Called by the service after the drain; a no-op for
    /// transports without filesystem residue.
    fn cleanup(&self) {}
}

/// A connection-oriented transport: how to bind a [`Listener`] and how
/// to dial a [`Stream`], given an [`Endpoint`] of the matching scheme.
///
/// Implementations reject endpoints of a foreign scheme with
/// [`io::ErrorKind::InvalidInput`]; [`AnyTransport`] instead dispatches
/// on the scheme, which is what CLI surfaces use.
pub trait Transport: Send + Sync + 'static {
    /// The stream both sides of a connection hold.
    type Stream: Stream;
    /// The listening half.
    type Listener: Listener<Stream = Self::Stream>;

    /// Bind `endpoint` and start listening.
    fn bind(endpoint: &Endpoint) -> io::Result<Self::Listener>;

    /// Dial a listening `endpoint`.
    fn connect(endpoint: &Endpoint) -> io::Result<Self::Stream>;
}

// ---------------------------------------------------------------------
// Unix-domain sockets
// ---------------------------------------------------------------------

/// [`Transport`] over `AF_UNIX` sockets — the single-host default.
///
/// Binding removes a stale *socket* file at the path first (the daemon
/// owns its path; a previous incarnation that died without cleanup
/// leaves one behind), and [`Listener::cleanup`] removes the file
/// again after shutdown. A non-socket file at the path is **refused**,
/// never deleted — a mistyped path must not cost data.
#[derive(Debug)]
pub struct UnixTransport;

/// [`UnixTransport`]'s listening half: the socket plus the path it owns.
#[derive(Debug)]
pub struct UnixTransportListener {
    inner: UnixListener,
    local: Endpoint,
    path: PathBuf,
}

impl Stream for UnixStream {
    fn try_clone(&self) -> io::Result<Self> {
        UnixStream::try_clone(self)
    }

    fn shutdown_read(&self) -> io::Result<()> {
        self.shutdown(std::net::Shutdown::Read)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        UnixStream::set_nonblocking(self, nonblocking)
    }
}

impl Listener for UnixTransportListener {
    type Stream = UnixStream;

    fn accept(&self) -> io::Result<Self::Stream> {
        self.inner.accept().map(|(stream, _)| stream)
    }

    fn local_endpoint(&self) -> &Endpoint {
        &self.local
    }

    fn cleanup(&self) {
        std::fs::remove_file(&self.path).ok();
    }
}

impl Transport for UnixTransport {
    type Stream = UnixStream;
    type Listener = UnixTransportListener;

    fn bind(endpoint: &Endpoint) -> io::Result<Self::Listener> {
        let Endpoint::Unix(path) = endpoint else {
            return Err(scheme_mismatch("unix", endpoint));
        };
        // Replace only a *socket* left behind by a previous daemon.
        // Anything else at the path (a mistyped --listen pointing at a
        // data file, say) is not ours to delete — refuse loudly.
        if let Ok(metadata) = std::fs::symlink_metadata(path) {
            use std::os::unix::fs::FileTypeExt;
            if !metadata.file_type().is_socket() {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!(
                        "{}: refusing to replace an existing non-socket file with a \
                         listener (remove it yourself if that is really the intent)",
                        path.display()
                    ),
                ));
            }
            std::fs::remove_file(path)?;
        }
        Ok(UnixTransportListener {
            inner: UnixListener::bind(path)?,
            local: endpoint.clone(),
            path: path.clone(),
        })
    }

    fn connect(endpoint: &Endpoint) -> io::Result<Self::Stream> {
        let Endpoint::Unix(path) = endpoint else {
            return Err(scheme_mismatch("unix", endpoint));
        };
        UnixStream::connect(path)
    }
}

// ---------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------

/// How long a TCP dial may take before [`TcpTransport::connect`] gives
/// up on an address. An unreachable fleet host (powered off, firewall
/// dropping SYNs) must fail in seconds, not the OS retry window (~2
/// minutes), or one sick host would stall an entire fleet campaign.
pub(crate) const TCP_CONNECT_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

/// [`Transport`] over TCP — the fleet transport, for daemons and shard
/// workers on other hosts.
///
/// `TCP_NODELAY` is set on every stream (the protocol is small
/// newline-framed lines; Nagle buffering would serialize the streamed
/// `unit` responses behind artificial latency), and dials are bounded
/// at 10 s. Reads are *not* bounded — a `run` over
/// a big spec legitimately streams for a long time.
#[derive(Debug)]
pub struct TcpTransport;

/// [`TcpTransport`]'s listening half, carrying the resolved local
/// endpoint (real port for `:0` binds) and its self-dialable form
/// (loopback for wildcard hosts).
#[derive(Debug)]
pub struct TcpTransportListener {
    inner: TcpListener,
    local: Endpoint,
    dial: Endpoint,
}

impl Stream for TcpStream {
    fn try_clone(&self) -> io::Result<Self> {
        TcpStream::try_clone(self)
    }

    fn shutdown_read(&self) -> io::Result<()> {
        self.shutdown(std::net::Shutdown::Read)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        TcpStream::set_nonblocking(self, nonblocking)
    }
}

impl Listener for TcpTransportListener {
    type Stream = TcpStream;

    fn accept(&self) -> io::Result<Self::Stream> {
        let (stream, _) = self.inner.accept()?;
        stream.set_nodelay(true).ok();
        Ok(stream)
    }

    fn local_endpoint(&self) -> &Endpoint {
        &self.local
    }

    fn dial_endpoint(&self) -> &Endpoint {
        &self.dial
    }
}

/// `host:port` for a socket address, bracketing IPv6 literals.
fn tcp_authority(ip: &std::net::IpAddr, port: u16) -> String {
    if ip.is_ipv6() {
        format!("[{ip}]:{port}")
    } else {
        format!("{ip}:{port}")
    }
}

impl Transport for TcpTransport {
    type Stream = TcpStream;
    type Listener = TcpTransportListener;

    fn bind(endpoint: &Endpoint) -> io::Result<Self::Listener> {
        let Endpoint::Tcp(authority) = endpoint else {
            return Err(scheme_mismatch("tcp", endpoint));
        };
        let inner = TcpListener::bind(authority.as_str())?;
        let addr = inner.local_addr()?;
        // `local` is faithful to the bind (a wildcard stays a wildcard —
        // the operator should see "listening on all interfaces"), while
        // `dial` is an address this host can actually connect to, which
        // for a wildcard bind means loopback.
        let dial_ip: std::net::IpAddr = if addr.ip().is_unspecified() {
            if addr.is_ipv6() {
                std::net::Ipv6Addr::LOCALHOST.into()
            } else {
                std::net::Ipv4Addr::LOCALHOST.into()
            }
        } else {
            addr.ip()
        };
        Ok(TcpTransportListener {
            inner,
            local: Endpoint::Tcp(tcp_authority(&addr.ip(), addr.port())),
            dial: Endpoint::Tcp(tcp_authority(&dial_ip, addr.port())),
        })
    }

    fn connect(endpoint: &Endpoint) -> io::Result<Self::Stream> {
        use std::net::ToSocketAddrs;
        let Endpoint::Tcp(authority) = endpoint else {
            return Err(scheme_mismatch("tcp", endpoint));
        };
        // Bounded dial (see [`TCP_CONNECT_TIMEOUT`]): try every resolved
        // address, return the last failure if none answers.
        let mut last: Option<io::Error> = None;
        for addr in authority.as_str().to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, TCP_CONNECT_TIMEOUT) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    return Ok(stream);
                }
                Err(error) => last = Some(error),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                format!("{authority}: resolved to no addresses"),
            )
        }))
    }
}

// ---------------------------------------------------------------------
// Runtime scheme dispatch
// ---------------------------------------------------------------------

/// [`Transport`] that picks [`UnixTransport`] or [`TcpTransport`] from
/// the endpoint's scheme at runtime — the transport behind `--listen`
/// and `--fleet` flags, where the scheme arrives as user input.
#[derive(Debug)]
pub struct AnyTransport;

/// [`AnyTransport`]'s stream: whichever concrete stream the endpoint's
/// scheme produced.
#[derive(Debug)]
pub enum AnyStream {
    /// An `AF_UNIX` connection.
    Unix(UnixStream),
    /// A TCP connection.
    Tcp(TcpStream),
}

/// [`AnyTransport`]'s listener: whichever concrete listener the
/// endpoint's scheme produced.
#[derive(Debug)]
pub enum AnyListener {
    /// A bound Unix-domain socket.
    Unix(UnixTransportListener),
    /// A bound TCP socket.
    Tcp(TcpTransportListener),
}

impl Read for AnyStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            AnyStream::Unix(stream) => stream.read(buf),
            AnyStream::Tcp(stream) => stream.read(buf),
        }
    }
}

impl Write for AnyStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            AnyStream::Unix(stream) => stream.write(buf),
            AnyStream::Tcp(stream) => stream.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            AnyStream::Unix(stream) => stream.flush(),
            AnyStream::Tcp(stream) => stream.flush(),
        }
    }
}

impl Stream for AnyStream {
    fn try_clone(&self) -> io::Result<Self> {
        match self {
            AnyStream::Unix(stream) => UnixStream::try_clone(stream).map(AnyStream::Unix),
            AnyStream::Tcp(stream) => TcpStream::try_clone(stream).map(AnyStream::Tcp),
        }
    }

    fn shutdown_read(&self) -> io::Result<()> {
        match self {
            AnyStream::Unix(stream) => stream.shutdown_read(),
            AnyStream::Tcp(stream) => Stream::shutdown_read(stream),
        }
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            AnyStream::Unix(stream) => Stream::set_nonblocking(stream, nonblocking),
            AnyStream::Tcp(stream) => Stream::set_nonblocking(stream, nonblocking),
        }
    }
}

impl AsFd for AnyStream {
    fn as_fd(&self) -> BorrowedFd<'_> {
        match self {
            AnyStream::Unix(stream) => stream.as_fd(),
            AnyStream::Tcp(stream) => stream.as_fd(),
        }
    }
}

impl Listener for AnyListener {
    type Stream = AnyStream;

    fn accept(&self) -> io::Result<Self::Stream> {
        match self {
            AnyListener::Unix(listener) => listener.accept().map(AnyStream::Unix),
            AnyListener::Tcp(listener) => listener.accept().map(AnyStream::Tcp),
        }
    }

    fn local_endpoint(&self) -> &Endpoint {
        match self {
            AnyListener::Unix(listener) => listener.local_endpoint(),
            AnyListener::Tcp(listener) => listener.local_endpoint(),
        }
    }

    fn dial_endpoint(&self) -> &Endpoint {
        match self {
            AnyListener::Unix(listener) => listener.dial_endpoint(),
            AnyListener::Tcp(listener) => listener.dial_endpoint(),
        }
    }

    fn cleanup(&self) {
        match self {
            AnyListener::Unix(listener) => listener.cleanup(),
            AnyListener::Tcp(listener) => listener.cleanup(),
        }
    }
}

impl Transport for AnyTransport {
    type Stream = AnyStream;
    type Listener = AnyListener;

    fn bind(endpoint: &Endpoint) -> io::Result<Self::Listener> {
        match endpoint {
            Endpoint::Unix(_) => UnixTransport::bind(endpoint).map(AnyListener::Unix),
            Endpoint::Tcp(_) => TcpTransport::bind(endpoint).map(AnyListener::Tcp),
        }
    }

    fn connect(endpoint: &Endpoint) -> io::Result<Self::Stream> {
        match endpoint {
            Endpoint::Unix(_) => UnixTransport::connect(endpoint).map(AnyStream::Unix),
            Endpoint::Tcp(_) => TcpTransport::connect(endpoint).map(AnyStream::Tcp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_parse_and_display_exactly() {
        for text in [
            "unix:/tmp/oranges.sock",
            "unix:relative/path.sock",
            "tcp:127.0.0.1:7771",
            "tcp:node-a.local:0",
            "tcp:[::1]:65535",
        ] {
            let endpoint: Endpoint = text.parse().expect(text);
            assert_eq!(endpoint.to_string(), text, "round trip");
        }
        assert_eq!(
            "unix:/a/b".parse::<Endpoint>().unwrap(),
            Endpoint::Unix(PathBuf::from("/a/b"))
        );
        assert_eq!(
            "tcp:[::1]:80".parse::<Endpoint>().unwrap(),
            Endpoint::Tcp("[::1]:80".to_string())
        );
    }

    #[test]
    fn malformed_endpoints_are_rejected_with_context() {
        for (bad, want) in [
            ("", "no scheme"),
            ("/tmp/plain-path.sock", "no scheme"),
            ("udp:1.2.3.4:5", "no scheme"),
            ("unix:", "empty path"),
            ("tcp:", "needs host:port"),
            ("tcp:hostonly", "needs host:port"),
            ("tcp::7771", "empty host"),
            ("tcp:host:notaport", "bad port"),
            ("tcp:host:65536", "bad port"),
            ("tcp:host:-1", "bad port"),
        ] {
            let error = bad.parse::<Endpoint>().expect_err(bad);
            assert!(error.to_string().contains(want), "{bad}: {error}");
        }
    }

    #[test]
    fn schemes_and_path_conversions() {
        assert_eq!(Endpoint::Unix(PathBuf::from("/x")).scheme(), "unix");
        assert_eq!(Endpoint::Tcp("h:1".into()).scheme(), "tcp");
        let from_path: Endpoint = Path::new("/tmp/a.sock").into();
        assert_eq!(from_path, Endpoint::Unix(PathBuf::from("/tmp/a.sock")));
        let from_buf: Endpoint = PathBuf::from("/tmp/b.sock").into();
        assert_eq!(from_buf.to_string(), "unix:/tmp/b.sock");
    }

    #[test]
    fn tcp_bind_resolves_port_zero_to_a_dialable_endpoint() {
        let listener = TcpTransport::bind(&"tcp:127.0.0.1:0".parse().unwrap()).expect("bind");
        let Endpoint::Tcp(authority) = listener.local_endpoint().clone() else {
            panic!("tcp listener must report a tcp endpoint");
        };
        let port: u16 = authority.rsplit_once(':').unwrap().1.parse().unwrap();
        assert_ne!(port, 0, "port 0 resolved to the real port");
        // The resolved endpoint is genuinely dialable.
        let _client = TcpTransport::connect(listener.local_endpoint()).expect("dialable");
    }

    #[test]
    fn wildcard_binds_stay_faithful_but_dial_as_loopback() {
        let listener = TcpTransport::bind(&"tcp:0.0.0.0:0".parse().unwrap()).expect("bind");
        // The reported endpoint tells the truth: all interfaces.
        let local = listener.local_endpoint().to_string();
        assert!(local.starts_with("tcp:0.0.0.0:"), "{local}");
        assert!(!local.ends_with(":0"), "port resolved");
        // The dial form is something this host can actually connect to.
        let dial = listener.dial_endpoint().to_string();
        assert!(dial.starts_with("tcp:127.0.0.1:"), "{dial}");
        let _client = TcpTransport::connect(listener.dial_endpoint()).expect("self-dialable");
        // Concrete-host binds dial as themselves.
        let concrete = TcpTransport::bind(&"tcp:127.0.0.1:0".parse().unwrap()).expect("bind");
        assert_eq!(concrete.local_endpoint(), concrete.dial_endpoint());
    }

    #[test]
    fn tcp_connects_to_closed_ports_fail_fast_with_io_errors() {
        // Reserve a port, close it, dial it: loopback refuses instantly
        // (well inside TCP_CONNECT_TIMEOUT) instead of hanging.
        let vacant = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("reserve");
            let port = listener.local_addr().expect("addr").port();
            drop(listener);
            format!("tcp:127.0.0.1:{port}").parse::<Endpoint>().unwrap()
        };
        let started = std::time::Instant::now();
        let error = TcpTransport::connect(&vacant).expect_err("nobody listening");
        assert!(started.elapsed() < TCP_CONNECT_TIMEOUT, "failed fast");
        assert_ne!(error.kind(), io::ErrorKind::InvalidInput, "{error}");
    }

    #[test]
    fn scheme_mismatches_are_invalid_input() {
        let tcp = "tcp:127.0.0.1:1".parse().unwrap();
        let unix = "unix:/tmp/never-bound.sock".parse().unwrap();
        for error in [
            TcpTransport::bind(&unix).expect_err("tcp cannot bind unix"),
            TcpTransport::connect(&unix).expect_err("tcp cannot dial unix"),
            UnixTransport::bind(&tcp).expect_err("unix cannot bind tcp"),
            UnixTransport::connect(&tcp).expect_err("unix cannot dial tcp"),
        ] {
            assert_eq!(error.kind(), io::ErrorKind::InvalidInput, "{error}");
        }
    }

    /// The contract the service's drain depends on: after
    /// `shutdown_read` on the server-held handle, a blocked read wakes
    /// with EOF while the write half still delivers.
    fn read_half_shutdown_contract<T: Transport>(endpoint: &Endpoint) {
        let listener = T::bind(endpoint).expect("bind");
        let local = listener.local_endpoint().clone();
        let server = std::thread::spawn(move || {
            let stream = listener.accept().expect("accept");
            let reader = stream.try_clone().expect("clone");
            stream.shutdown_read().expect("half-close");
            // The read half is gone: a read on *either* handle sees EOF…
            let mut buffer = [0u8; 8];
            let mut reader = reader;
            assert_eq!(reader.read(&mut buffer).expect("read after shutdown"), 0);
            // …but the write half still works.
            let mut writer = stream;
            writer
                .write_all(b"still-on\n")
                .expect("write after shutdown");
        });
        let mut client = T::connect(&local).expect("connect");
        let mut line = Vec::new();
        client.read_to_end(&mut line).expect("read response");
        assert_eq!(line, b"still-on\n");
        server.join().expect("server thread");
    }

    #[test]
    fn tcp_read_half_shutdown_keeps_the_write_half() {
        read_half_shutdown_contract::<TcpTransport>(&"tcp:127.0.0.1:0".parse().unwrap());
    }

    /// The contract the reactor depends on: in nonblocking mode a read
    /// from a silent peer returns `WouldBlock` instead of parking, and
    /// data that has arrived is still readable.
    fn nonblocking_readiness_contract<T: Transport>(endpoint: &Endpoint) {
        let listener = T::bind(endpoint).expect("bind");
        let dial = listener.dial_endpoint().clone();
        let mut client = T::connect(&dial).expect("connect");
        let mut server = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking mode");

        let mut buffer = [0u8; 8];
        let error = server.read(&mut buffer).expect_err("peer is silent");
        assert_eq!(error.kind(), io::ErrorKind::WouldBlock, "{error}");

        client.write_all(b"x").expect("send");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            match server.read(&mut buffer) {
                Ok(n) => {
                    assert_eq!(&buffer[..n], b"x");
                    break;
                }
                Err(error) if error.kind() == io::ErrorKind::WouldBlock => {
                    assert!(std::time::Instant::now() < deadline, "byte never arrived");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Err(error) => panic!("nonblocking read failed: {error}"),
            }
        }
        listener.cleanup();
    }

    #[test]
    fn tcp_nonblocking_reads_would_block_instead_of_parking() {
        nonblocking_readiness_contract::<TcpTransport>(&"tcp:127.0.0.1:0".parse().unwrap());
    }

    #[test]
    fn unix_nonblocking_reads_would_block_instead_of_parking() {
        let path = std::env::temp_dir().join(format!(
            "oranges-transport-nonblock-{}.sock",
            std::process::id()
        ));
        nonblocking_readiness_contract::<UnixTransport>(&Endpoint::Unix(path.clone()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unix_read_half_shutdown_keeps_the_write_half() {
        let path = std::env::temp_dir().join(format!(
            "oranges-transport-halfclose-{}.sock",
            std::process::id()
        ));
        read_half_shutdown_contract::<UnixTransport>(&Endpoint::Unix(path.clone()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unix_bind_replaces_stale_socket_files_and_cleanup_removes_them() {
        let path = std::env::temp_dir().join(format!(
            "oranges-transport-stale-{}.sock",
            std::process::id()
        ));
        let endpoint = Endpoint::Unix(path.clone());
        // A stale socket file from a daemon that died without cleanup…
        drop(UnixTransport::bind(&endpoint).expect("first bind"));
        assert!(path.exists(), "socket file left behind");
        // …is silently replaced by the next bind.
        let listener = UnixTransport::bind(&endpoint).expect("bind over stale socket");
        assert!(path.exists(), "socket file exists while bound");
        listener.cleanup();
        assert!(!path.exists(), "cleanup removes the socket file");
    }

    #[test]
    fn unix_bind_refuses_to_delete_non_socket_files() {
        let path = std::env::temp_dir().join(format!(
            "oranges-transport-precious-{}.txt",
            std::process::id()
        ));
        std::fs::write(&path, b"precious data").expect("plant a regular file");
        let error = UnixTransport::bind(&Endpoint::Unix(path.clone()))
            .expect_err("a regular file at the path is not ours to delete");
        assert_eq!(error.kind(), io::ErrorKind::AlreadyExists, "{error}");
        assert_eq!(
            std::fs::read(&path).expect("still readable"),
            b"precious data",
            "file untouched"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn any_transport_dispatches_on_scheme() {
        // TCP through the Any layer.
        let listener = AnyTransport::bind(&"tcp:127.0.0.1:0".parse().unwrap()).expect("bind tcp");
        assert_eq!(listener.local_endpoint().scheme(), "tcp");
        let local = listener.local_endpoint().clone();
        let server = std::thread::spawn(move || {
            let mut stream = listener.accept().expect("accept");
            let mut byte = [0u8; 1];
            stream.read_exact(&mut byte).expect("read");
            stream.write_all(&byte).expect("echo");
        });
        let mut client = local.connect().expect("Endpoint::connect dials");
        client.write_all(b"A").expect("send");
        let mut back = [0u8; 1];
        client.read_exact(&mut back).expect("recv");
        assert_eq!(&back, b"A");
        server.join().expect("server");

        // Unix through the Any layer.
        {
            let path = std::env::temp_dir()
                .join(format!("oranges-transport-any-{}.sock", std::process::id()));
            let listener = AnyTransport::bind(&Endpoint::Unix(path.clone())).expect("bind unix");
            assert_eq!(listener.local_endpoint().scheme(), "unix");
            let local = listener.local_endpoint().clone();
            let server = std::thread::spawn(move || {
                let mut stream = listener.accept().expect("accept");
                let mut byte = [0u8; 1];
                stream.read_exact(&mut byte).expect("read");
                stream.write_all(&byte).expect("echo");
                listener.cleanup();
            });
            let mut client = AnyTransport::connect(&local).expect("connect");
            client.write_all(b"U").expect("send");
            let mut back = [0u8; 1];
            client.read_exact(&mut back).expect("recv");
            assert_eq!(&back, b"U");
            server.join().expect("server");
        }
    }
}
