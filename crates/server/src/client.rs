//! A blocking wire-protocol client for `dualtabled` — the library the
//! bench driver, the soak harness and ad-hoc tools speak through.

use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use dt_common::{DataType, Row};

use crate::protocol::{
    self, decode_error, decode_header, ErrorCode, Reader, WireError, FRAME_END, FRAME_ERROR,
    FRAME_HEADER, FRAME_ROWS,
};

/// A successful statement response.
#[derive(Debug, Clone, Default)]
pub struct Response {
    /// Result columns (empty for DML/DDL acknowledgements).
    pub columns: Vec<(String, DataType)>,
    /// Result rows.
    pub rows: Vec<Row>,
    /// Rows affected by DML.
    pub affected: u64,
    /// Server-side execution note.
    pub message: String,
}

/// Why a statement failed at the client.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure — the connection is dead; reconnect to retry.
    Io(std::io::Error),
    /// The server answered with an `X` frame; the connection is fine.
    Server(WireError),
}

impl ClientError {
    /// `true` if retrying (same statement, possibly after reconnect)
    /// may succeed.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_) => true,
            ClientError::Server(e) => e.retryable,
        }
    }

    /// The server error, if this was an `X` frame.
    pub fn server(&self) -> Option<&WireError> {
        match self {
            ClientError::Server(e) => Some(e),
            ClientError::Io(_) => None,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Server(e) => write!(f, "server: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A connection to a `dualtabled` server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Connects, retrying briefly — for tests racing server startup.
    pub fn connect_retry(
        addr: impl ToSocketAddrs + Copy,
        timeout: Duration,
    ) -> std::io::Result<Client> {
        let start = std::time::Instant::now();
        loop {
            match Self::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) if start.elapsed() > timeout => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Executes one statement with the server-default deadline.
    pub fn query(&mut self, sql: &str) -> Result<Response, ClientError> {
        self.query_deadline(sql, 0)
    }

    /// Executes one statement under an explicit deadline (`0` = server
    /// default).
    pub fn query_deadline(&mut self, sql: &str, deadline_ms: u32) -> Result<Response, ClientError> {
        protocol::write_frame(&mut self.writer, &protocol::encode_query(deadline_ms, sql))
            .map_err(ClientError::Io)?;
        use std::io::Write;
        self.writer.flush().map_err(ClientError::Io)?;

        let mut response = Response::default();
        loop {
            let payload = match protocol::read_frame(&mut self.reader).map_err(ClientError::Io)? {
                Some(p) => p,
                None => {
                    return Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed mid-response",
                    )))
                }
            };
            let corrupt = |m: &str| {
                ClientError::Server(WireError {
                    code: ErrorCode::Corrupt,
                    retryable: false,
                    message: m.to_string(),
                })
            };
            let Some((&kind, body)) = payload.split_first() else {
                return Err(corrupt("empty frame"));
            };
            let mut r = Reader::new(body);
            match kind {
                FRAME_HEADER => {
                    response.columns =
                        decode_header(&mut r).map_err(|e| corrupt(&e.to_string()))?;
                }
                FRAME_ROWS => {
                    let n = r.u16().map_err(|e| corrupt(&e.to_string()))? as usize;
                    for _ in 0..n {
                        let mut row = Row::with_capacity(response.columns.len());
                        for _ in 0..response.columns.len() {
                            row.push(r.value().map_err(|e| corrupt(&e.to_string()))?);
                        }
                        response.rows.push(row);
                    }
                }
                FRAME_END => {
                    response.affected = r.u64().map_err(|e| corrupt(&e.to_string()))?;
                    response.message = r.string().map_err(|e| corrupt(&e.to_string()))?;
                    return Ok(response);
                }
                FRAME_ERROR => {
                    let e = decode_error(&mut r).map_err(|e| corrupt(&e.to_string()))?;
                    return Err(ClientError::Server(e));
                }
                other => return Err(corrupt(&format!("unexpected frame kind {other}"))),
            }
        }
    }
}
