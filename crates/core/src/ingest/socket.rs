//! The ingest layer's one network transport: a TCP or Unix-domain socket,
//! chosen by the address.  [`TelemetryServe`](super::serve::TelemetryServe)
//! binds a [`Listener`] and accepts [`Stream`]s from it; the
//! [`IngestReactor`](super::reactor::IngestReactor) dials [`Stream`]s.
//!
//! Both ends spell addresses the same way: `unix:<path>` names a
//! Unix-domain socket, anything else is a TCP `host:port`.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};

use crate::error::AdaSenseError;

/// The `unix:<path>` address prefix selecting a Unix-domain socket, on both
/// the serving and the dialing side.
pub const UNIX_ADDR_SCHEME: &str = "unix:";

/// One connected socket: loopback/remote TCP, or a Unix-domain socket for
/// local fleets that skip the TCP stack.
#[derive(Debug)]
pub(crate) enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    /// Dials `addr`, honoring the `unix:` scheme.  A TCP stream gets
    /// `TCP_NODELAY`, so small frames leave without waiting on Nagle.
    pub(crate) fn connect(addr: &str) -> std::io::Result<Self> {
        match addr.strip_prefix(UNIX_ADDR_SCHEME) {
            Some(path) => Ok(Self::Unix(UnixStream::connect(path)?)),
            None => {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                Ok(Self::Tcp(stream))
            }
        }
    }

    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            Self::Tcp(s) => s.set_nonblocking(nonblocking),
            Self::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// Shuts down both directions.
    pub(crate) fn shutdown(&self) -> std::io::Result<()> {
        match self {
            Self::Tcp(s) => s.shutdown(Shutdown::Both),
            Self::Unix(s) => s.shutdown(Shutdown::Both),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Self::Tcp(s) => s.read(buf),
            Self::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Self::Tcp(s) => s.write(buf),
            Self::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Self::Tcp(s) => s.flush(),
            Self::Unix(s) => s.flush(),
        }
    }
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Self::Tcp(s) => s.as_raw_fd(),
            Self::Unix(s) => s.as_raw_fd(),
        }
    }
}

/// One listening socket: TCP or Unix-domain.
#[derive(Debug)]
pub(crate) enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    /// Binds `addr`, honoring the `unix:` scheme, and makes the listener
    /// nonblocking.  A socket file already at a `unix:` path (one a dropped
    /// listener left behind) is replaced; any other file there is left
    /// alone and the bind fails.
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::Ingest`] naming `addr` if it cannot be bound.
    pub(crate) fn bind(addr: &str) -> Result<Self, AdaSenseError> {
        let failed =
            |e: std::io::Error| AdaSenseError::ingest(format!("binding {addr} failed: {e}"));
        let listener = match addr.strip_prefix(UNIX_ADDR_SCHEME) {
            Some(path) => {
                if let Ok(meta) = std::fs::symlink_metadata(path) {
                    if !meta.file_type().is_socket() {
                        return Err(AdaSenseError::ingest(format!(
                            "binding {addr} failed: {path} exists and is not a socket"
                        )));
                    }
                    std::fs::remove_file(path).map_err(failed)?;
                }
                Self::Unix(UnixListener::bind(path).map_err(failed)?)
            }
            None => Self::Tcp(TcpListener::bind(addr).map_err(failed)?),
        };
        let nonblocking = match &listener {
            Self::Tcp(l) => l.set_nonblocking(true),
            Self::Unix(l) => l.set_nonblocking(true),
        };
        nonblocking
            .map_err(|e| AdaSenseError::ingest(format!("nonblocking listener failed: {e}")))?;
        Ok(listener)
    }

    pub(crate) fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Self::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            Self::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

impl AsRawFd for Listener {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Self::Tcp(l) => l.as_raw_fd(),
            Self::Unix(l) => l.as_raw_fd(),
        }
    }
}
