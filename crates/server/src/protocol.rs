//! The `dualtabled` wire protocol (DESIGN.md §14): length-prefixed
//! frames over TCP, strict request–response.
//!
//! Every frame is `u32` little-endian payload length followed by the
//! payload; `payload[0]` is the frame kind. The client sends one
//! **query** frame and reads frames until a terminal **end** or
//! **error** frame:
//!
//! * `Q` (client → server): `u32` deadline in milliseconds (`0` = use
//!   the server default) + the statement text, UTF-8.
//! * `H` (server → client): result header. `u16` column count, then per
//!   column `u16` name length + name bytes + `u8` type code.
//! * `D` (server → client): a row batch. `u16` row count, then rows as
//!   tagged values (see [`write_value`]). Batches are bounded
//!   ([`ROWS_PER_BATCH`]) so a slow reader exerts backpressure on its
//!   own connection thread only.
//! * `E` (server → client, terminal): success. `u64` affected-row count
//!   + `u32` message length + message.
//! * `X` (server → client, terminal): failure. `u8` error code, `u8`
//!   retryable flag, `u32` message length + message. A failed statement
//!   applied nothing (a COMMIT is all-or-none).
//!
//! Only `E`/`X` end a request; a client must keep reading past `H`/`D`.

use std::io::{Read, Write};

use dt_common::{DataType, Error, Result, Row, Schema, Value};

/// Frame kind bytes.
pub const FRAME_QUERY: u8 = b'Q';
/// Result header frame.
pub const FRAME_HEADER: u8 = b'H';
/// Row batch frame.
pub const FRAME_ROWS: u8 = b'D';
/// Terminal success frame.
pub const FRAME_END: u8 = b'E';
/// Terminal error frame.
pub const FRAME_ERROR: u8 = b'X';

/// Rows per `D` frame. Small enough that a timed-out or disconnected
/// reader is noticed quickly; large enough to amortize syscalls.
pub const ROWS_PER_BATCH: usize = 256;

/// Frames larger than this are rejected on read (a corrupt length
/// prefix must not allocate gigabytes).
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Wire error codes carried by `X` frames. Codes ≤ 17 mirror
/// [`Error`] variants; the server-layer refusals get their own codes so
/// clients can distinguish "the statement failed" from "the server
/// never ran it".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Malformed statement text.
    Parse = 1,
    /// Unplannable statement.
    Plan = 2,
    /// Unknown table/path/key.
    NotFound = 3,
    /// CREATE of an existing entity.
    AlreadyExists = 4,
    /// Schema violation.
    Schema = 5,
    /// Invalid argument.
    InvalidArgument = 6,
    /// Unsupported by the storage handler.
    Unsupported = 7,
    /// A concurrent exclusive operation holds the table.
    Busy = 8,
    /// First-committer-wins MVCC conflict (retryable).
    Conflict = 9,
    /// A storage tier is temporarily unreachable (retryable).
    Unavailable = 10,
    /// The statement overran its deadline (retryable; session intact).
    Timeout = 11,
    /// Admission control shed the statement: dispatch queue full
    /// (retryable; the statement never executed).
    ServerBusy = 12,
    /// The server is draining for shutdown (retryable elsewhere; the
    /// statement never executed).
    ShuttingDown = 13,
    /// Invariant violation (includes contained statement panics).
    Internal = 14,
    /// On-disk data failed validation.
    Corrupt = 15,
    /// OS-level I/O failure.
    Io = 16,
    /// Deterministic test-injected fault.
    Injected = 17,
}

impl ErrorCode {
    /// Maps a library error to its wire code.
    pub fn from_error(e: &Error) -> ErrorCode {
        match e {
            Error::Parse(_) => ErrorCode::Parse,
            Error::Plan(_) => ErrorCode::Plan,
            Error::NotFound(_) => ErrorCode::NotFound,
            Error::AlreadyExists(_) => ErrorCode::AlreadyExists,
            Error::Schema(_) => ErrorCode::Schema,
            Error::InvalidArgument(_) => ErrorCode::InvalidArgument,
            Error::Unsupported(_) => ErrorCode::Unsupported,
            Error::Busy(_) => ErrorCode::Busy,
            Error::Conflict(_) => ErrorCode::Conflict,
            Error::Unavailable(_) => ErrorCode::Unavailable,
            Error::Timeout(_) => ErrorCode::Timeout,
            Error::Internal(_) => ErrorCode::Internal,
            Error::Corrupt(_) => ErrorCode::Corrupt,
            Error::Io(_) => ErrorCode::Io,
            Error::Injected(_) => ErrorCode::Injected,
        }
    }

    /// Decodes a wire code.
    pub fn from_u8(code: u8) -> Option<ErrorCode> {
        Some(match code {
            1 => ErrorCode::Parse,
            2 => ErrorCode::Plan,
            3 => ErrorCode::NotFound,
            4 => ErrorCode::AlreadyExists,
            5 => ErrorCode::Schema,
            6 => ErrorCode::InvalidArgument,
            7 => ErrorCode::Unsupported,
            8 => ErrorCode::Busy,
            9 => ErrorCode::Conflict,
            10 => ErrorCode::Unavailable,
            11 => ErrorCode::Timeout,
            12 => ErrorCode::ServerBusy,
            13 => ErrorCode::ShuttingDown,
            14 => ErrorCode::Internal,
            15 => ErrorCode::Corrupt,
            16 => ErrorCode::Io,
            17 => ErrorCode::Injected,
            _ => return None,
        })
    }
}

fn type_code(ty: DataType) -> u8 {
    match ty {
        DataType::Int64 => 1,
        DataType::Float64 => 2,
        DataType::Utf8 => 3,
        DataType::Bool => 4,
        DataType::Date => 5,
    }
}

fn type_from_code(code: u8) -> Result<DataType> {
    Ok(match code {
        1 => DataType::Int64,
        2 => DataType::Float64,
        3 => DataType::Utf8,
        4 => DataType::Bool,
        5 => DataType::Date,
        other => return Err(Error::Corrupt(format!("unknown wire type code {other}"))),
    })
}

/// Serializes one value with a leading type tag.
pub fn write_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Int64(x) => {
            buf.push(1);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Float64(x) => {
            buf.push(2);
            buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Utf8(s) => {
            buf.push(3);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        Value::Bool(b) => {
            buf.push(4);
            buf.push(u8::from(*b));
        }
        Value::Date(d) => {
            buf.push(5);
            buf.extend_from_slice(&d.to_le_bytes());
        }
    }
}

/// A cursor over a received payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(Error::Corrupt(format!(
                "frame truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Error::Corrupt("non-UTF-8 string".into()))
    }

    /// Reads a `u16`-length-prefixed UTF-8 string (table names).
    pub fn short_string(&mut self) -> Result<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Error::Corrupt("non-UTF-8 string".into()))
    }

    /// Reads everything left as UTF-8 (the SQL tail of a `Q` frame).
    pub fn rest_utf8(&mut self) -> Result<String> {
        let bytes = self.take(self.buf.len() - self.pos)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Error::Corrupt("non-UTF-8 SQL".into()))
    }

    /// Reads one tagged value.
    pub fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int64(i64::from_le_bytes(self.take(8)?.try_into().unwrap())),
            2 => Value::Float64(f64::from_bits(u64::from_le_bytes(
                self.take(8)?.try_into().unwrap(),
            ))),
            3 => Value::Utf8(self.string()?),
            4 => Value::Bool(self.u8()? != 0),
            5 => Value::Date(i32::from_le_bytes(self.take(4)?.try_into().unwrap())),
            other => return Err(Error::Corrupt(format!("unknown value tag {other}"))),
        })
    }
}

/// Writes one frame: `u32` LE length prefix + payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one frame payload. `Ok(None)` on clean EOF at a frame boundary
/// (the peer hung up between requests).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} out of range"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Encodes a `Q` frame payload.
pub fn encode_query(deadline_ms: u32, sql: &str) -> Vec<u8> {
    let mut buf = Vec::with_capacity(5 + sql.len());
    buf.push(FRAME_QUERY);
    buf.extend_from_slice(&deadline_ms.to_le_bytes());
    buf.extend_from_slice(sql.as_bytes());
    buf
}

/// Encodes an `H` frame payload.
pub fn encode_header(schema: &Schema) -> Vec<u8> {
    let mut buf = vec![FRAME_HEADER];
    buf.extend_from_slice(&(schema.len() as u16).to_le_bytes());
    for f in schema.fields() {
        buf.extend_from_slice(&(f.name.len() as u16).to_le_bytes());
        buf.extend_from_slice(f.name.as_bytes());
        buf.push(type_code(f.data_type));
    }
    buf
}

/// Decodes an `H` payload (past the kind byte) into `(name, type)`s.
pub fn decode_header(r: &mut Reader<'_>) -> Result<Vec<(String, DataType)>> {
    let n = r.u16()? as usize;
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.short_string()?;
        let ty = type_from_code(r.u8()?)?;
        cols.push((name, ty));
    }
    Ok(cols)
}

/// Encodes a `D` frame payload from a row slice.
pub fn encode_rows(rows: &[Row]) -> Vec<u8> {
    let mut buf = vec![FRAME_ROWS];
    buf.extend_from_slice(&(rows.len() as u16).to_le_bytes());
    for row in rows {
        for v in row {
            write_value(&mut buf, v);
        }
    }
    buf
}

/// Encodes an `E` frame payload.
pub fn encode_end(affected: u64, message: &str) -> Vec<u8> {
    let mut buf = vec![FRAME_END];
    buf.extend_from_slice(&affected.to_le_bytes());
    buf.extend_from_slice(&(message.len() as u32).to_le_bytes());
    buf.extend_from_slice(message.as_bytes());
    buf
}

/// Encodes an `X` frame payload.
pub fn encode_error(code: ErrorCode, retryable: bool, message: &str) -> Vec<u8> {
    let mut buf = vec![FRAME_ERROR, code as u8, u8::from(retryable)];
    buf.extend_from_slice(&(message.len() as u32).to_le_bytes());
    buf.extend_from_slice(message.as_bytes());
    buf
}

/// A decoded `X` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The wire error code.
    pub code: ErrorCode,
    /// `true` if the client may retry (possibly on another server).
    pub retryable: bool,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

/// Decodes an `X` payload (past the kind byte).
pub fn decode_error(r: &mut Reader<'_>) -> Result<WireError> {
    let code_byte = r.u8()?;
    let code = ErrorCode::from_u8(code_byte)
        .ok_or_else(|| Error::Corrupt(format!("unknown error code {code_byte}")))?;
    let retryable = r.u8()? != 0;
    let message = r.string()?;
    Ok(WireError {
        code,
        retryable,
        message,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trip() {
        let values = vec![
            Value::Null,
            Value::Int64(-42),
            Value::Float64(2.5),
            Value::Utf8("héllo".into()),
            Value::Bool(true),
            Value::Date(19000),
        ];
        let mut buf = Vec::new();
        for v in &values {
            write_value(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for v in &values {
            assert_eq!(&r.value().unwrap(), v);
        }
    }

    #[test]
    fn error_frame_round_trip() {
        let payload = encode_error(ErrorCode::Conflict, true, "first-committer-wins loss");
        assert_eq!(payload[0], FRAME_ERROR);
        let mut r = Reader::new(&payload[1..]);
        let e = decode_error(&mut r).unwrap();
        assert_eq!(e.code, ErrorCode::Conflict);
        assert!(e.retryable);
        assert_eq!(e.message, "first-committer-wins loss");
    }

    #[test]
    fn frame_round_trip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_query(250, "SELECT 1")).unwrap();
        write_frame(&mut wire, &encode_end(3, "ok")).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let q = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(q[0], FRAME_QUERY);
        let mut r = Reader::new(&q[1..]);
        assert_eq!(r.u32().unwrap(), 250);
        assert_eq!(r.rest_utf8().unwrap(), "SELECT 1");
        let e = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(e[0], FRAME_END);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let err = read_frame(&mut std::io::Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
