//! A blocking client for the line protocol: `tsql --connect` and the
//! in-process test harness both use it.

use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;

use crate::protocol::{self, Response};
use crate::server::is_unix_addr;

/// Either transport, so the client code is transport-agnostic.
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// One connection to a `tsql --serve` instance.
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
}

impl Client {
    /// Connect to a TCP `host:port` or (if the address contains `/`) a
    /// Unix socket path.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let (reader, writer) = if is_unix_addr(addr) {
            let s = UnixStream::connect(addr)?;
            let peer = s.try_clone()?;
            (Stream::Unix(peer), Stream::Unix(s))
        } else {
            let s = TcpStream::connect(addr)?;
            // Requests are one write each (see `send`), so Nagle could
            // only delay them; the clone shares the socket and the option.
            s.set_nodelay(true)?;
            let peer = s.try_clone()?;
            (Stream::Tcp(peer), Stream::Tcp(s))
        };
        Ok(Client {
            reader: BufReader::new(reader),
            writer,
        })
    }

    /// Execute one statement and read its framed response. The statement
    /// must be a single line (the protocol is line-oriented); embedded
    /// newlines are rejected here rather than silently splitting into
    /// two statements.
    pub fn execute(&mut self, sql: &str) -> io::Result<Response> {
        let stmt = sql.trim();
        if stmt.contains('\n') || stmt.contains('\r') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "statements must be a single line on the wire",
            ));
        }
        self.send(stmt)?;
        protocol::read_response(&mut self.reader)
    }

    /// One request line in one `write`. Statement and newline sent as two
    /// writes leave the second behind Nagle's algorithm until the server
    /// ACKs the first, and the server's delayed ACK waits ~40 ms for a
    /// reply it cannot produce before the newline arrives.
    fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(format!("{line}\n").as_bytes())
    }

    /// Send the quit marker; the server closes the connection.
    pub fn quit(mut self) -> io::Result<()> {
        self.send("\\q")
    }
}
