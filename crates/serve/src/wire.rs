//! The serving wire protocol: a vendored-only, length-prefixed binary
//! framing for snapshot queries over TCP.
//!
//! Everything is little-endian and length-checked, built on the same
//! [`embedstab_corpus::codec`] primitives as the cache file families — a
//! truncated or inconsistent frame decodes to `None`, never a panic or an
//! unbounded allocation, because every byte here is client-controlled.
//!
//! # Frame layout
//!
//! ```text
//! frame    := len: u32 (LE, body length, <= MAX_FRAME_BYTES) body
//! request  := version: u8 (= WIRE_VERSION)
//!             op: u8 (1 = LookupBatch, 2 = NearestBatch, 3 = Info)
//!             tenant_len: u16, tenant: utf8 bytes
//!             payload
//!   LookupBatch payload  := n: u32, n x id: u32
//!   NearestBatch payload := k: u32, queries: mat
//!   Info payload         := (empty)
//! response := version: u8 (= WIRE_VERSION)
//!             status: u8 (0 = ok, 1 = error)
//!   ok payload (LookupBatch)  := tag 1, rows: mat
//!   ok payload (NearestBatch) := tag 2, n: u32,
//!                                n x [cnt: u32, cnt x (id: u32, sim: f64)]
//!   ok payload (Info)         := tag 3, version: u64, vocab: u32,
//!                                dim: u32, precision_bits: u8
//!   error payload             := code: u16, msg_len: u32, msg: utf8
//! mat      := rows: u32, cols: u32, rows*cols x f64 (raw LE bits)
//! ```
//!
//! `f64`s travel as raw bit patterns (like the pair cache), so a looked-up
//! vector arrives bitwise identical to [`Snapshot::try_lookup`] on the server
//! — the serving layer's bitwise-reproducibility guarantee extends across
//! the wire.
//!
//! [`Snapshot::try_lookup`]: crate::Snapshot::try_lookup

use std::io::{self, Read, Write};

use embedstab_corpus::codec::{
    put_f64, put_mat, put_u32, put_u64, take_f64, take_mat, take_u32, take_u64,
};
use embedstab_linalg::Mat;

use crate::error::QueryError;

/// Protocol version byte leading every request and response body; a peer
/// speaking a different version is rejected as malformed rather than
/// misread.
pub const WIRE_VERSION: u8 = 1;

/// Hard ceiling on one frame's body size (16 MiB). A length prefix past
/// this is rejected before any allocation — the framing equivalent of
/// [`take_len`]'s refusal to trust a corrupt length.
pub const MAX_FRAME_BYTES: usize = 1 << 24;

const OP_LOOKUP_BATCH: u8 = 1;
const OP_NEAREST_BATCH: u8 = 2;
const OP_INFO: u8 = 3;

const STATUS_OK: u8 = 0;
const STATUS_ERROR: u8 = 1;

/// One client request: which tenant, which batched query path.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Fetch the vectors for a batch of word ids (one
    /// [`Snapshot::try_lookup_batch`](crate::Snapshot::try_lookup_batch)
    /// on the server, possibly coalesced with other clients' ids).
    LookupBatch {
        /// The tenant whose live snapshot answers.
        tenant: String,
        /// The word ids to fetch.
        ids: Vec<u32>,
    },
    /// Fetch the `k` nearest words for each query vector (one
    /// [`Snapshot::try_nearest_batch`](crate::Snapshot::try_nearest_batch)
    /// on the server, possibly coalesced).
    NearestBatch {
        /// The tenant whose live snapshot answers.
        tenant: String,
        /// Neighbors requested per query.
        k: u32,
        /// Query vectors, one per row.
        queries: Mat,
    },
    /// Fetch the live snapshot's shape and version (what a load generator
    /// needs to construct valid queries).
    Info {
        /// The tenant to describe.
        tenant: String,
    },
}

impl Request {
    /// The tenant the request addresses.
    pub fn tenant(&self) -> &str {
        match self {
            Request::LookupBatch { tenant, .. }
            | Request::NearestBatch { tenant, .. }
            | Request::Info { tenant } => tenant,
        }
    }
}

/// The live snapshot's shape, as reported by [`Request::Info`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// The live snapshot's store-assigned version number.
    pub version: u64,
    /// Vocabulary size (valid word ids are `0..vocab_size`).
    pub vocab_size: u32,
    /// Embedding dimension (query vectors must have this many columns).
    pub dim: u32,
    /// The precision the snapshot is quantized to, in bits.
    pub precision_bits: u8,
}

/// One server response: the query's answer, or a typed error.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Request::LookupBatch`]: one row per requested id,
    /// bitwise identical to a server-side `lookup`.
    Rows(Mat),
    /// Answer to [`Request::NearestBatch`]: per query, the `k` nearest
    /// `(word id, cosine similarity)` pairs, descending.
    Neighbors(Vec<Vec<(u32, f64)>>),
    /// Answer to [`Request::Info`].
    Info(SnapshotInfo),
    /// The request could not be answered; the connection stays usable.
    Error {
        /// The error taxonomy entry.
        code: ErrorCode,
        /// Human-readable detail (mirrors the server-side error Display).
        message: String,
    },
}

impl Response {
    /// True for the `Error` variant.
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error { .. })
    }
}

/// The wire error taxonomy: protocol-level failures plus the
/// [`QueryError`] variants, one code each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The frame body did not decode as a request (bad version, bad op,
    /// truncated payload, non-UTF-8 tenant, trailing bytes).
    Malformed = 1,
    /// The named tenant is not served by this process.
    UnknownTenant = 2,
    /// The tenant's admission bound was hit; retry later.
    Overloaded = 3,
    /// A word id at or past the snapshot's vocabulary size.
    IdOutOfRange = 4,
    /// Query vectors whose dimension differs from the snapshot's.
    DimMismatch = 5,
    /// A batch with no ids / no query rows.
    EmptyBatch = 6,
    /// A nearest-neighbor request with `k = 0`.
    ZeroK = 7,
    /// The server failed internally; the query was not answered.
    Internal = 8,
    /// The server is shutting down and no longer accepts queries.
    ShuttingDown = 9,
}

impl ErrorCode {
    /// The on-wire discriminant. A match, not an `as` cast, so the
    /// codec-encoder lint's no-unchecked-narrowing rule holds trivially
    /// (and a new variant without a code is a compile error here).
    fn to_u16(self) -> u16 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::UnknownTenant => 2,
            ErrorCode::Overloaded => 3,
            ErrorCode::IdOutOfRange => 4,
            ErrorCode::DimMismatch => 5,
            ErrorCode::EmptyBatch => 6,
            ErrorCode::ZeroK => 7,
            ErrorCode::Internal => 8,
            ErrorCode::ShuttingDown => 9,
        }
    }

    fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnknownTenant,
            3 => ErrorCode::Overloaded,
            4 => ErrorCode::IdOutOfRange,
            5 => ErrorCode::DimMismatch,
            6 => ErrorCode::EmptyBatch,
            7 => ErrorCode::ZeroK,
            8 => ErrorCode::Internal,
            9 => ErrorCode::ShuttingDown,
            _ => return None,
        })
    }
}

impl From<&QueryError> for ErrorCode {
    fn from(e: &QueryError) -> ErrorCode {
        match e {
            QueryError::IdOutOfRange { .. } => ErrorCode::IdOutOfRange,
            QueryError::DimMismatch { .. } => ErrorCode::DimMismatch,
            QueryError::EmptyBatch => ErrorCode::EmptyBatch,
            QueryError::ZeroK => ErrorCode::ZeroK,
        }
    }
}

impl From<QueryError> for Response {
    fn from(e: QueryError) -> Response {
        Response::Error {
            code: ErrorCode::from(&e),
            message: e.to_string(),
        }
    }
}

fn oversize(len: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("frame body of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte frame limit"),
    )
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] if `body` exceeds
/// [`MAX_FRAME_BYTES`], or any transport error from `w`.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME_BYTES {
        return Err(oversize(body.len()));
    }
    let len = u32::try_from(body.len()).map_err(|_| oversize(body.len()))?;
    // One contiguous write: a separate 4-byte prefix write would become
    // its own TCP segment, and Nagle + delayed-ACK turns that into tens
    // of milliseconds of added round-trip per frame.
    let mut framed = Vec::with_capacity(4 + body.len());
    framed.extend_from_slice(&len.to_le_bytes());
    framed.extend_from_slice(body);
    w.write_all(&framed)?;
    w.flush()
}

/// Reads one length-prefixed frame body. `Ok(None)` is a clean EOF (the
/// peer closed between frames); a length prefix past [`MAX_FRAME_BYTES`]
/// is [`io::ErrorKind::InvalidData`] *before* any allocation, because the
/// stream can no longer be resynchronized after an untrusted length.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(oversize(len));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Reads a `u32` count, refusing counts the remaining input cannot
/// possibly hold (`elem_size` bytes per element) — the frame-local
/// analogue of [`embedstab_corpus::codec::take_len`], which uses `u64`
/// prefixes in the cache files.
fn take_count(r: &mut &[u8], elem_size: usize) -> Option<usize> {
    let n = take_u32(r)? as usize;
    if r.len() < n.checked_mul(elem_size)? {
        return None;
    }
    Some(n)
}

fn put_tenant(out: &mut Vec<u8>, tenant: &str) -> io::Result<()> {
    let len = u16::try_from(tenant.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "tenant name of {} bytes exceeds the u16 length field",
                tenant.len()
            ),
        )
    })?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(tenant.as_bytes());
    Ok(())
}

fn take_tenant(r: &mut &[u8]) -> Option<String> {
    let (head, rest) = r.split_first_chunk::<2>()?;
    *r = rest;
    let len = u16::from_le_bytes(*head) as usize;
    if r.len() < len {
        return None;
    }
    let name = std::str::from_utf8(&r[..len]).ok()?.to_string();
    *r = &r[len..];
    Some(name)
}

/// Encodes a request body (frame it with [`write_frame`]).
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidInput`] if a length field overflows
/// its wire width (tenant names past `u16`, id batches past `u32`).
pub fn encode_request(req: &Request) -> io::Result<Vec<u8>> {
    let mut out = vec![WIRE_VERSION];
    match req {
        Request::LookupBatch { tenant, ids } => {
            out.push(OP_LOOKUP_BATCH);
            put_tenant(&mut out, tenant)?;
            let n = u32::try_from(ids.len()).map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("{} ids exceed the u32 count field", ids.len()),
                )
            })?;
            put_u32(&mut out, n);
            for &id in ids {
                put_u32(&mut out, id);
            }
        }
        Request::NearestBatch { tenant, k, queries } => {
            out.push(OP_NEAREST_BATCH);
            put_tenant(&mut out, tenant)?;
            put_u32(&mut out, *k);
            put_mat(&mut out, queries);
        }
        Request::Info { tenant } => {
            out.push(OP_INFO);
            put_tenant(&mut out, tenant)?;
        }
    }
    Ok(out)
}

/// Decodes a request body. Any truncation, version/op mismatch, bad
/// UTF-8, or trailing bytes is `None` — the server answers
/// [`ErrorCode::Malformed`], never panics.
pub fn decode_request(mut body: &[u8]) -> Option<Request> {
    let r = &mut body;
    let (head, rest) = r.split_first_chunk::<2>()?;
    *r = rest;
    let [version, op] = *head;
    if version != WIRE_VERSION {
        return None;
    }
    let tenant = take_tenant(r)?;
    let req = match op {
        OP_LOOKUP_BATCH => {
            let n = take_count(r, 4)?;
            let ids: Vec<u32> = (0..n).map(|_| take_u32(r)).collect::<Option<_>>()?;
            Request::LookupBatch { tenant, ids }
        }
        OP_NEAREST_BATCH => {
            let k = take_u32(r)?;
            let queries = take_mat(r)?;
            Request::NearestBatch { tenant, k, queries }
        }
        OP_INFO => Request::Info { tenant },
        _ => return None,
    };
    if !r.is_empty() {
        return None;
    }
    Some(req)
}

/// Encodes a response body (frame it with [`write_frame`]).
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidInput`] if a count overflows its `u32`
/// wire field.
pub fn encode_response(resp: &Response) -> io::Result<Vec<u8>> {
    fn count_u32(n: usize, what: &str) -> io::Result<u32> {
        u32::try_from(n).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{n} {what} exceed the u32 count field"),
            )
        })
    }
    let mut out = vec![WIRE_VERSION];
    match resp {
        Response::Rows(rows) => {
            out.push(STATUS_OK);
            out.push(OP_LOOKUP_BATCH);
            put_mat(&mut out, rows);
        }
        Response::Neighbors(per_query) => {
            out.push(STATUS_OK);
            out.push(OP_NEAREST_BATCH);
            put_u32(&mut out, count_u32(per_query.len(), "queries")?);
            for neighbors in per_query {
                put_u32(&mut out, count_u32(neighbors.len(), "neighbors")?);
                for &(id, sim) in neighbors {
                    put_u32(&mut out, id);
                    put_f64(&mut out, sim);
                }
            }
        }
        Response::Info(info) => {
            out.push(STATUS_OK);
            out.push(OP_INFO);
            put_u64(&mut out, info.version);
            put_u32(&mut out, info.vocab_size);
            put_u32(&mut out, info.dim);
            out.push(info.precision_bits);
        }
        Response::Error { code, message } => {
            out.push(STATUS_ERROR);
            out.extend_from_slice(&code.to_u16().to_le_bytes());
            // Truncate pathological messages instead of failing the send
            // (an error response must always be deliverable), backing off
            // to the nearest char boundary so the slice cannot panic.
            let mut cut = message.len().min(u16::MAX as usize);
            while cut > 0 && !message.is_char_boundary(cut) {
                cut -= 1;
            }
            let msg = &message[..cut];
            put_u32(&mut out, count_u32(msg.len(), "message bytes")?);
            out.extend_from_slice(msg.as_bytes());
        }
    }
    Ok(out)
}

/// Decodes a response body; `None` on any truncation or inconsistency.
pub fn decode_response(mut body: &[u8]) -> Option<Response> {
    let r = &mut body;
    let (head, rest) = r.split_first_chunk::<2>()?;
    *r = rest;
    let [version, status] = *head;
    if version != WIRE_VERSION {
        return None;
    }
    let resp = match status {
        STATUS_OK => {
            let (tag, rest) = r.split_first()?;
            *r = rest;
            match *tag {
                OP_LOOKUP_BATCH => Response::Rows(take_mat(r)?),
                OP_NEAREST_BATCH => {
                    let n = take_count(r, 4)?;
                    let per_query: Vec<Vec<(u32, f64)>> = (0..n)
                        .map(|_| {
                            let cnt = take_count(r, 12)?;
                            (0..cnt)
                                .map(|_| Some((take_u32(r)?, take_f64(r)?)))
                                .collect::<Option<Vec<_>>>()
                        })
                        .collect::<Option<_>>()?;
                    Response::Neighbors(per_query)
                }
                OP_INFO => {
                    let version = take_u64(r)?;
                    let vocab_size = take_u32(r)?;
                    let dim = take_u32(r)?;
                    let (bits, rest) = r.split_first()?;
                    *r = rest;
                    Response::Info(SnapshotInfo {
                        version,
                        vocab_size,
                        dim,
                        precision_bits: *bits,
                    })
                }
                _ => return None,
            }
        }
        STATUS_ERROR => {
            let (head, rest) = r.split_first_chunk::<2>()?;
            *r = rest;
            let code = ErrorCode::from_u16(u16::from_le_bytes(*head))?;
            let len = take_count(r, 1)?;
            let message = std::str::from_utf8(&r[..len]).ok()?.to_string();
            *r = &r[len..];
            Response::Error { code, message }
        }
        _ => return None,
    };
    if !r.is_empty() {
        return None;
    }
    Some(resp)
}

/// One synchronous request/response exchange over a framed transport —
/// the client half of the protocol, shared by the load generator and the
/// integration tests.
///
/// # Errors
///
/// Any transport error, plus [`io::ErrorKind::UnexpectedEof`] if the peer
/// closed before responding and [`io::ErrorKind::InvalidData`] if the
/// response does not decode.
pub fn call(stream: &mut (impl Read + Write), req: &Request) -> io::Result<Response> {
    write_frame(stream, &encode_request(req)?)?;
    let body = read_frame(stream)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection before responding",
        )
    })?;
    decode_response(&body)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "undecodable response frame"))
}

/// Applies one read/write timeout pair to a TCP stream (`None` restores
/// fully blocking I/O). Shared by the serve and fleet connection handlers
/// and their clients, so neither side can hang forever on a stalled peer.
///
/// # Errors
///
/// Any error from the socket option calls (e.g. a zero `Duration`, which
/// the OS rejects).
pub fn set_io_timeouts(
    stream: &std::net::TcpStream,
    timeout: Option<std::time::Duration>,
) -> io::Result<()> {
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)
}

/// [`call`] over a TCP stream with a per-exchange deadline: the timeouts
/// are applied before the exchange, and a stalled server surfaces as
/// [`io::ErrorKind::WouldBlock`]/[`io::ErrorKind::TimedOut`] instead of
/// hanging the client.
///
/// # Errors
///
/// Everything [`call`] returns, plus socket-option and timeout errors.
pub fn call_with_timeout(
    stream: &mut std::net::TcpStream,
    req: &Request,
    timeout: Option<std::time::Duration>,
) -> io::Result<Response> {
    set_io_timeouts(stream, timeout)?;
    call(stream, req)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat() -> Mat {
        Mat::from_rows(&[&[1.5, -0.0, f64::NAN], &[0.25, 2.0, -3.5]])
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::LookupBatch {
                tenant: "search".into(),
                ids: vec![0, 7, u32::MAX],
            },
            Request::NearestBatch {
                tenant: "ads".into(),
                k: 5,
                queries: mat(),
            },
            Request::Info { tenant: "".into() },
        ];
        for req in &reqs {
            let body = encode_request(req).expect("encode");
            let back = decode_request(&body).expect("decode");
            // Mat equality is not bitwise for NaN; compare the encodings.
            assert_eq!(
                encode_request(&back).expect("re-encode"),
                body,
                "{req:?} must round-trip"
            );
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Rows(mat()),
            Response::Neighbors(vec![vec![(3, 0.9), (1, 0.5)], vec![]]),
            Response::Info(SnapshotInfo {
                version: 12,
                vocab_size: 220,
                dim: 16,
                precision_bits: 4,
            }),
            Response::Error {
                code: ErrorCode::IdOutOfRange,
                message: "word id 999 out of range".into(),
            },
        ];
        for resp in &resps {
            let body = encode_response(resp).expect("encode");
            let back = decode_response(&body).expect("decode");
            assert_eq!(
                encode_response(&back).expect("re-encode"),
                body,
                "{resp:?} must round-trip"
            );
        }
    }

    #[test]
    fn truncated_bodies_decode_to_none() {
        let req_body = encode_request(&Request::NearestBatch {
            tenant: "t".into(),
            k: 3,
            queries: mat(),
        })
        .expect("encode");
        for cut in 0..req_body.len() {
            assert!(
                decode_request(&req_body[..cut]).is_none(),
                "request cut at {cut} must not decode"
            );
        }
        let resp_body =
            encode_response(&Response::Neighbors(vec![vec![(3, 0.9)]])).expect("encode");
        for cut in 0..resp_body.len() {
            assert!(
                decode_response(&resp_body[..cut]).is_none(),
                "response cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn trailing_bytes_bad_versions_and_bad_ops_are_rejected() {
        let mut body = encode_request(&Request::Info { tenant: "t".into() }).expect("encode");
        body.push(0);
        assert!(decode_request(&body).is_none(), "trailing byte");
        let mut body = encode_request(&Request::Info { tenant: "t".into() }).expect("encode");
        body[0] = WIRE_VERSION + 1;
        assert!(decode_request(&body).is_none(), "future version");
        let mut body = encode_request(&Request::Info { tenant: "t".into() }).expect("encode");
        body[1] = 200;
        assert!(decode_request(&body).is_none(), "unknown op");
        // Unknown error codes don't decode either.
        let mut body = encode_response(&Response::Error {
            code: ErrorCode::Malformed,
            message: String::new(),
        })
        .expect("encode");
        body[2] = 0xFF;
        assert!(decode_response(&body).is_none(), "unknown error code");
    }

    #[test]
    fn oversize_frames_are_rejected_before_allocation() {
        let mut sink = Vec::new();
        let big = vec![0u8; MAX_FRAME_BYTES + 1];
        assert!(write_frame(&mut sink, &big).is_err());
        // A length prefix claiming 2^32-1 bytes errors without allocating.
        let evil = u32::MAX.to_le_bytes();
        let mut r = &evil[..];
        assert_eq!(
            read_frame(&mut r).expect_err("oversize").kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let body = encode_request(&Request::LookupBatch {
            tenant: "t".into(),
            ids: vec![1, 2, 3],
        })
        .expect("encode");
        let mut buf = Vec::new();
        write_frame(&mut buf, &body).expect("write");
        write_frame(&mut buf, &body).expect("write");
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).expect("frame 1"), Some(body.clone()));
        assert_eq!(read_frame(&mut r).expect("frame 2"), Some(body));
        assert_eq!(read_frame(&mut r).expect("eof"), None);
    }

    #[test]
    fn query_errors_map_to_stable_codes() {
        let cases = [
            (
                QueryError::IdOutOfRange {
                    id: 9,
                    vocab_size: 5,
                },
                ErrorCode::IdOutOfRange,
            ),
            (
                QueryError::DimMismatch {
                    got: 3,
                    expected: 4,
                },
                ErrorCode::DimMismatch,
            ),
            (QueryError::EmptyBatch, ErrorCode::EmptyBatch),
            (QueryError::ZeroK, ErrorCode::ZeroK),
        ];
        for (err, code) in cases {
            let resp = Response::from(err.clone());
            match resp {
                Response::Error { code: c, message } => {
                    assert_eq!(c, code);
                    assert_eq!(message, err.to_string());
                }
                other => panic!("expected error response, got {other:?}"),
            }
        }
    }
}
