//! `fpsnr serve` — a long-running region-read server over one container.
//!
//! The server opens a blocked container behind an [`szlike::SzStore`] and
//! answers region-read requests over TCP, so many clients can pull
//! sub-volumes out of one compressed file without anyone ever decoding the
//! whole field. All concurrency is std: a non-blocking accept loop hands
//! each connection to its own thread, and the store's sharded single-flight
//! cache makes concurrent overlapping reads share block decodes.
//!
//! ## Wire protocol (length-prefixed frames)
//!
//! Every message — request or response — is one frame: a `u32` little-endian
//! payload length followed by the payload. Responses are capped at 1 GiB,
//! requests at 64 bytes (the largest legal one, a rank-3 READ, is 62); a
//! longer request prefix gets an error response and the connection
//! closes before any payload buffer is allocated. Requests start with an
//! op byte:
//!
//! | op | name     | request payload after the op byte                    |
//! |----|----------|------------------------------------------------------|
//! | 1  | READ     | `rank: u8`, then per axis `varint start, varint end` |
//! | 2  | STATS    | (empty)                                              |
//! | 3  | SHUTDOWN | (empty)                                              |
//!
//! Responses start with a status byte (0 ok, 1 error). An error payload is
//! a UTF-8 message. A READ ok payload is `scalar_bytes: u8` (4 or 8),
//! `rank: u8`, per-axis `varint` extents, then the samples little-endian in
//! row-major region order — bit-identical to slicing a full decompress. A
//! STATS ok payload is a JSON object of the store's counters. SHUTDOWN
//! acknowledges with an empty ok frame, then the server drains and exits.
//!
//! A connection may issue any number of requests; the server answers in
//! order. A connection that sends no request for five minutes is closed,
//! and one waiting for its next request notices a SHUTDOWN from another
//! connection within 50 ms, so idle clients never hold the server open.
//! On exit the server prints a [`ServeReport`]: cache hit rate,
//! bytes decoded per byte served (the random-access win), and request
//! latency percentiles, all sourced from the store's `fpsnr-obs`-mirrored
//! counters.

use losslesskit::varint;
use ndfield::Scalar;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use szlike::{Region, StoreOptions, StoreStats, SzStore};

/// Response frame cap — a region read of a whole 1-GiB field is the
/// largest legitimate response; anything bigger is a protocol error.
#[cfg(test)]
const MAX_FRAME: usize = 1 << 30;

/// Request frame cap. The largest request is a rank-3 READ: op, rank and
/// six 10-byte varints, 62 bytes. The length prefix comes from an
/// untrusted client, so the server checks it against this cap before
/// allocating the payload buffer.
const MAX_REQUEST: usize = 64;

/// How often a connection waiting for its next request checks the
/// server's shutdown flag: the upper bound an idle client adds to
/// SHUTDOWN.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// A connection that sends no request for this long is closed.
const IDLE_LIMIT: Duration = Duration::from_secs(300);

/// Once a request's first byte has arrived, the rest of its frame must
/// follow within this long (a request is at most [`MAX_REQUEST`] bytes).
const FRAME_TIMEOUT: Duration = Duration::from_secs(10);

/// Request op bytes.
pub const OP_READ: u8 = 1;
/// Snapshot the store counters as JSON.
pub const OP_STATS: u8 = 2;
/// Stop the server after acknowledging.
pub const OP_SHUTDOWN: u8 = 3;

/// A store of either scalar type, dispatching on the container header.
pub enum AnyStore {
    /// 32-bit float container.
    F32(SzStore<f32>),
    /// 64-bit float container.
    F64(SzStore<f64>),
}

impl AnyStore {
    /// Open `bytes` as whichever scalar type its header declares.
    pub fn open(bytes: Vec<u8>, opts: StoreOptions) -> Result<AnyStore, String> {
        let mut pos = 0usize;
        let header = szlike::format::read_header(&bytes, &mut pos).map_err(|e| e.to_string())?;
        match header.scalar_tag {
            "f32" => Ok(AnyStore::F32(
                SzStore::open_with(bytes, opts).map_err(|e| e.to_string())?,
            )),
            "f64" => Ok(AnyStore::F64(
                SzStore::open_with(bytes, opts).map_err(|e| e.to_string())?,
            )),
            other => Err(format!("unsupported scalar type {other}")),
        }
    }

    /// The stored field's extents.
    pub fn dims(&self) -> Vec<usize> {
        match self {
            AnyStore::F32(s) => s.shape().dims(),
            AnyStore::F64(s) => s.shape().dims(),
        }
    }

    /// Counter snapshot (see [`SzStore::stats`]).
    pub fn stats(&self) -> StoreStats {
        match self {
            AnyStore::F32(s) => s.stats(),
            AnyStore::F64(s) => s.stats(),
        }
    }

    /// Serve one READ: decode the intersecting blocks and frame the
    /// samples (scalar width, rank, extents, LE data).
    fn read_region_framed(&self, region: &Region) -> Result<Vec<u8>, String> {
        fn framed<T: Scalar>(store: &SzStore<T>, region: &Region) -> Result<Vec<u8>, String> {
            let field = store.read_region(region).map_err(|e| e.to_string())?;
            let dims = field.shape().dims();
            let mut out = Vec::with_capacity(2 + field.len() * T::BYTES + 4 * dims.len());
            out.push(T::BYTES as u8);
            out.push(dims.len() as u8);
            for d in &dims {
                varint::write_u64(&mut out, *d as u64);
            }
            for v in field.as_slice() {
                v.write_le(&mut out);
            }
            Ok(out)
        }
        match self {
            AnyStore::F32(s) => framed(s, region),
            AnyStore::F64(s) => framed(s, region),
        }
    }
}

/// Render the store counters as a JSON object (STATS payload).
pub fn stats_json(s: &StoreStats) -> String {
    format!(
        concat!(
            "{{\"hits\":{},\"misses\":{},\"waits\":{},\"evictions\":{},",
            "\"blocks_decoded\":{},\"bytes_decoded\":{},\"regions\":{},",
            "\"bytes_served\":{},\"cached_blocks\":{},\"cached_bytes\":{},",
            "\"hit_rate\":{:.4},\"decode_amplification\":{:.4}}}"
        ),
        s.hits,
        s.misses,
        s.waits,
        s.evictions,
        s.blocks_decoded,
        s.bytes_decoded,
        s.regions,
        s.bytes_served,
        s.cached_blocks,
        s.cached_bytes,
        s.hit_rate(),
        s.decode_amplification(),
    )
}

/// What the server measured over its lifetime, printed on shutdown.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Final store counters.
    pub stats: StoreStats,
    /// READ requests answered (ok or error).
    pub requests: u64,
    /// Median READ latency.
    pub p50: Duration,
    /// 99th-percentile READ latency.
    pub p99: Duration,
}

impl ServeReport {
    /// Human-readable multi-line report.
    pub fn render(&self) -> String {
        let s = &self.stats;
        format!(
            "requests          {}\n\
             regions served    {} ({} bytes)\n\
             blocks decoded    {} ({} bytes)\n\
             cache             {} hits / {} misses / {} waits ({:.1}% hit rate)\n\
             evictions         {}\n\
             decode amplification {:.3} bytes decoded per byte served\n\
             latency           p50 {:?}  p99 {:?}",
            self.requests,
            s.regions,
            s.bytes_served,
            s.blocks_decoded,
            s.bytes_decoded,
            s.hits,
            s.misses,
            s.waits,
            s.hit_rate() * 100.0,
            s.evictions,
            s.decode_amplification(),
            self.p50,
            self.p99,
        )
    }
}

/// Read one length-prefixed frame of at most `cap` payload bytes (`None`
/// on clean EOF at a frame boundary). A longer prefix is an error, raised
/// before the payload buffer is allocated.
fn read_frame(stream: &mut TcpStream, cap: usize) -> Result<Option<Vec<u8>>, String> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(format!("reading frame length: {e}")),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > cap {
        return Err(format!("frame of {len} bytes exceeds the {cap}-byte cap"));
    }
    let mut payload = vec![0u8; len];
    stream
        .read_exact(&mut payload)
        .map_err(|e| format!("reading frame payload: {e}"))?;
    Ok(Some(payload))
}

/// Frames whose payload fits this are coalesced into one buffer and hit
/// the socket as a single `write` — with `TCP_NODELAY` set that is one
/// packet, so small READ/STATS responses never straddle a length-prefix
/// segment and a payload segment (the straddle is what showed up as
/// Nagle-shaped p99 spikes). Larger frames use vectored I/O instead of
/// paying a memcpy of the payload.
const COALESCE_MAX: usize = 64 * 1024;

/// Write one length-prefixed frame in a single buffered write. The
/// server side sends everything through [`write_response`]; this is the
/// request-side half the in-process test clients use.
#[cfg(test)]
fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> Result<(), String> {
    let len = u32::try_from(payload.len()).map_err(|_| "frame too large".to_string())?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    stream
        .write_all(&frame)
        .map_err(|e| format!("writing frame: {e}"))
}

/// Write one response frame (`status` byte + `body`) without ever
/// materializing `status ‖ body` by insertion: small frames are coalesced
/// into a single write; large ones go out as one vectored write loop over
/// `(header ‖ status, body)`.
fn write_response(stream: &mut TcpStream, status: u8, body: &[u8]) -> Result<(), String> {
    let len =
        u32::try_from(1 + body.len()).map_err(|_| "frame too large".to_string())?;
    let mut head = [0u8; 5];
    head[..4].copy_from_slice(&len.to_le_bytes());
    head[4] = status;
    if body.len() <= COALESCE_MAX {
        let mut frame = Vec::with_capacity(5 + body.len());
        frame.extend_from_slice(&head);
        frame.extend_from_slice(body);
        return stream
            .write_all(&frame)
            .map_err(|e| format!("writing frame: {e}"));
    }
    // write_vectored has no write_all guarantee; loop until both slices
    // drain, re-slicing past whatever the kernel accepted.
    let (mut h, mut b) = (0usize, 0usize);
    while h < head.len() || b < body.len() {
        let bufs = [
            std::io::IoSlice::new(&head[h..]),
            std::io::IoSlice::new(&body[b..]),
        ];
        let n = match stream.write_vectored(&bufs) {
            Ok(0) => return Err("connection closed mid-frame".to_string()),
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("writing frame: {e}")),
        };
        let from_head = n.min(head.len() - h);
        h += from_head;
        b += n - from_head;
    }
    Ok(())
}

/// Parse a READ payload (after the op byte) into a region.
fn parse_read(payload: &[u8]) -> Result<Region, String> {
    let mut pos = 0usize;
    let rank = *payload.first().ok_or("READ payload missing rank")? as usize;
    pos += 1;
    if rank == 0 || rank > 3 {
        return Err(format!("bad region rank {rank}"));
    }
    let mut axes: Vec<Range<usize>> = Vec::with_capacity(rank);
    for _ in 0..rank {
        let s = varint::read_u64(payload, &mut pos).map_err(|e| e.to_string())? as usize;
        let e = varint::read_u64(payload, &mut pos).map_err(|e| e.to_string())? as usize;
        axes.push(s..e);
    }
    if pos != payload.len() {
        return Err("trailing bytes after READ region".to_string());
    }
    Region::new(&axes).map_err(|e| e.to_string())
}

/// Wait for the first byte of the next request, polling the shutdown
/// flag every [`IDLE_POLL`]. `false` when the peer closed the connection,
/// the server is shutting down, or the connection idled past
/// [`IDLE_LIMIT`]; `true` with the read timeout set to [`FRAME_TIMEOUT`]
/// for the rest of the frame.
fn await_request(stream: &TcpStream, shutdown: &AtomicBool) -> Result<bool, String> {
    let set_timeout = |t| {
        stream
            .set_read_timeout(Some(t))
            .map_err(|e| format!("setting read timeout: {e}"))
    };
    set_timeout(IDLE_POLL)?;
    let idle_since = Instant::now();
    loop {
        match stream.peek(&mut [0u8; 1]) {
            Ok(0) => return Ok(false),
            Ok(_) => break,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.load(Ordering::SeqCst) || idle_since.elapsed() >= IDLE_LIMIT {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("waiting for a request: {e}")),
        }
    }
    set_timeout(FRAME_TIMEOUT)?;
    Ok(true)
}

/// Answer requests on one connection until EOF, SHUTDOWN (from any
/// connection) or [`IDLE_LIMIT`] without a request. A request frame that
/// cannot be read (over [`MAX_REQUEST`], or cut short) gets a best-effort
/// error response and ends the connection.
fn handle_connection(
    mut stream: TcpStream,
    store: &AnyStore,
    shutdown: &AtomicBool,
    latencies: &Mutex<Vec<u64>>,
) -> Result<(), String> {
    loop {
        if !await_request(&stream, shutdown)? {
            return Ok(());
        }
        let frame = match read_frame(&mut stream, MAX_REQUEST) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(()),
            Err(msg) => {
                let _ = write_response(&mut stream, 1, msg.as_bytes());
                return Err(msg);
            }
        };
        let Some((&op, payload)) = frame.split_first() else {
            write_response(&mut stream, 1, b"empty request frame")?;
            continue;
        };
        match op {
            OP_READ => {
                let start = Instant::now();
                let reply = parse_read(payload)
                    .and_then(|region| store.read_region_framed(&region));
                let micros = start.elapsed().as_micros() as u64;
                latencies.lock().expect("latency lock").push(micros);
                match reply {
                    Ok(body) => write_response(&mut stream, 0, &body)?,
                    Err(msg) => write_response(&mut stream, 1, msg.as_bytes())?,
                }
            }
            OP_STATS => {
                write_response(&mut stream, 0, stats_json(&store.stats()).as_bytes())?;
            }
            OP_SHUTDOWN => {
                shutdown.store(true, Ordering::SeqCst);
                write_response(&mut stream, 0, &[])?;
                return Ok(());
            }
            other => {
                write_response(&mut stream, 1, format!("unknown op {other}").as_bytes())?;
            }
        }
    }
}

/// Run the accept loop until a SHUTDOWN request lands, then drain the
/// connection threads and return the lifetime report.
///
/// # Errors
/// Socket-level failures configuring the listener. Per-connection errors
/// (malformed frames, broken pipes) end that connection only.
pub fn run_server(listener: TcpListener, store: AnyStore) -> Result<ServeReport, String> {
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("nonblocking listener: {e}"))?;
    let store = Arc::new(store);
    let shutdown = Arc::new(AtomicBool::new(false));
    let latencies = Arc::new(Mutex::new(Vec::<u64>::new()));
    let mut workers = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                stream.set_nodelay(true).ok();
                let store = Arc::clone(&store);
                let shutdown = Arc::clone(&shutdown);
                let latencies = Arc::clone(&latencies);
                workers.push(std::thread::spawn(move || {
                    // A connection error poisons only that connection.
                    let _ = handle_connection(stream, &store, &shutdown, &latencies);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(3));
            }
            Err(e) => return Err(format!("accept: {e}")),
        }
    }
    for w in workers {
        let _ = w.join();
    }
    let mut lat = latencies.lock().expect("latency lock").clone();
    lat.sort_unstable();
    let pct = |p: f64| -> Duration {
        if lat.is_empty() {
            Duration::ZERO
        } else {
            let idx = ((lat.len() as f64 - 1.0) * p).round() as usize;
            Duration::from_micros(lat[idx])
        }
    };
    Ok(ServeReport {
        stats: store.stats(),
        requests: lat.len() as u64,
        p50: pct(0.50),
        p99: pct(0.99),
    })
}

// ---------------------------------------------------------------------------
// Client helpers — exercised by the protocol tests below.
// ---------------------------------------------------------------------------

/// One decoded READ response.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub struct RegionReply {
    /// Scalar width in bytes (4 or 8).
    pub scalar_bytes: u8,
    /// Region extents, row-major.
    pub dims: Vec<usize>,
    /// Raw little-endian sample bytes (`dims` product × `scalar_bytes`).
    pub data: Vec<u8>,
}

/// Issue a READ for `axes` and decode the reply.
///
/// # Errors
/// Transport failures, server-reported errors, or a malformed reply.
#[cfg(test)]
pub fn client_read(stream: &mut TcpStream, axes: &[Range<usize>]) -> Result<RegionReply, String> {
    let mut req = vec![OP_READ, axes.len() as u8];
    for r in axes {
        varint::write_u64(&mut req, r.start as u64);
        varint::write_u64(&mut req, r.end as u64);
    }
    write_frame(stream, &req)?;
    let reply = read_frame(stream, MAX_FRAME)?.ok_or("server closed the connection")?;
    let (status, body) = reply.split_first().ok_or("empty reply frame")?;
    if *status != 0 {
        return Err(format!("server error: {}", String::from_utf8_lossy(body)));
    }
    let mut pos = 0usize;
    let scalar_bytes = *body.first().ok_or("reply missing scalar width")?;
    pos += 1;
    let rank = *body.get(pos).ok_or("reply missing rank")? as usize;
    pos += 1;
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        dims.push(varint::read_u64(body, &mut pos).map_err(|e| e.to_string())? as usize);
    }
    let expect = dims.iter().product::<usize>() * scalar_bytes as usize;
    let data = body[pos..].to_vec();
    if data.len() != expect {
        return Err(format!("reply holds {} sample bytes, want {expect}", data.len()));
    }
    Ok(RegionReply {
        scalar_bytes,
        dims,
        data,
    })
}

/// Issue a STATS request and return the JSON payload.
///
/// # Errors
/// Transport failures or a server-reported error.
#[cfg(test)]
pub fn client_stats(stream: &mut TcpStream) -> Result<String, String> {
    write_frame(stream, &[OP_STATS])?;
    let reply = read_frame(stream, MAX_FRAME)?.ok_or("server closed the connection")?;
    let (status, body) = reply.split_first().ok_or("empty reply frame")?;
    if *status != 0 {
        return Err(format!("server error: {}", String::from_utf8_lossy(body)));
    }
    Ok(String::from_utf8_lossy(body).into_owned())
}

/// Issue a SHUTDOWN request and wait for the acknowledgement.
///
/// # Errors
/// Transport failures.
#[cfg(test)]
pub fn client_shutdown(stream: &mut TcpStream) -> Result<(), String> {
    write_frame(stream, &[OP_SHUTDOWN])?;
    read_frame(stream, MAX_FRAME)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndfield::Field;
    use szlike::{compress, ErrorBound, SzConfig};

    fn grid_bytes(d: usize, chunk: usize) -> (Field<f32>, Vec<u8>) {
        let field = Field::from_fn_3d(d, d, d, |i, j, k| {
            ((i as f32) * 0.11).sin() + ((j as f32) * 0.07 + (k as f32) * 0.05).cos()
        });
        let cfg = SzConfig::new(ErrorBound::Abs(1e-3)).with_chunk_dims([chunk; 3]);
        let bytes = compress(&field, &cfg).unwrap();
        (field, bytes)
    }

    fn spawn_server(bytes: Vec<u8>) -> (std::net::SocketAddr, std::thread::JoinHandle<ServeReport>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let store = AnyStore::open(bytes, StoreOptions::default()).unwrap();
        let handle =
            std::thread::spawn(move || run_server(listener, store).expect("server run"));
        (addr, handle)
    }

    #[test]
    fn serves_concurrent_region_reads_and_reconciles_counters() {
        let (field, bytes) = grid_bytes(24, 8);
        let full: Vec<f32> = szlike::decompress::<f32>(&bytes).unwrap().as_slice().to_vec();
        let (addr, handle) = spawn_server(bytes);
        let field_dims = field.shape().dims();
        assert_eq!(field_dims, vec![24, 24, 24]);

        let mut clients = Vec::new();
        for t in 0..3usize {
            let full = full.clone();
            clients.push(std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                for r in 0..5usize {
                    let lo = (3 * t + r) % 12;
                    let axes = [lo..lo + 10, 2..20, lo..lo + 7];
                    let reply = client_read(&mut stream, &axes).unwrap();
                    assert_eq!(reply.scalar_bytes, 4);
                    assert_eq!(reply.dims, vec![10, 18, 7]);
                    let mut k = 0;
                    for i in axes[0].clone() {
                        for j in axes[1].clone() {
                            for l in axes[2].clone() {
                                let got = f32::from_le_bytes(
                                    reply.data[4 * k..4 * k + 4].try_into().unwrap(),
                                );
                                let want = full[(i * 24 + j) * 24 + l];
                                assert_eq!(got.to_bits(), want.to_bits());
                                k += 1;
                            }
                        }
                    }
                }
            }));
        }
        for c in clients {
            c.join().unwrap();
        }

        let mut ctl = TcpStream::connect(addr).unwrap();
        let stats = client_stats(&mut ctl).unwrap();
        assert!(stats.contains("\"regions\":15"), "{stats}");
        client_shutdown(&mut ctl).unwrap();
        let report = handle.join().unwrap();
        assert_eq!(report.requests, 15);
        let s = report.stats;
        assert_eq!(s.block_requests(), s.hits + s.misses + s.waits);
        assert_eq!(s.blocks_decoded, s.misses);
        assert!(s.blocks_decoded <= 27, "{} decodes", s.blocks_decoded);
        assert!(report.p99 >= report.p50);
    }

    #[test]
    fn bad_requests_get_error_frames_not_disconnects() {
        let (_, bytes) = grid_bytes(16, 8);
        let (addr, handle) = spawn_server(bytes);
        let mut stream = TcpStream::connect(addr).unwrap();
        // Region outside the field.
        let err = client_read(&mut stream, &[0..99, 0..16, 0..16]).unwrap_err();
        assert!(err.contains("server error"), "{err}");
        // Unknown op.
        write_frame(&mut stream, &[99]).unwrap();
        let reply = read_frame(&mut stream, MAX_FRAME).unwrap().unwrap();
        assert_eq!(reply[0], 1);
        // The connection still works afterwards.
        let ok = client_read(&mut stream, &[0..4, 0..4, 0..4]).unwrap();
        assert_eq!(ok.dims, vec![4, 4, 4]);
        client_shutdown(&mut stream).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn oversized_request_prefix_is_refused_at_once() {
        let (_, bytes) = grid_bytes(16, 8);
        let (addr, handle) = spawn_server(bytes);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        // A 1 GiB length prefix and no payload: the server must refuse it
        // straight away, not allocate the buffer and wait for the bytes.
        stream.write_all(&(1u32 << 30).to_le_bytes()).unwrap();
        match read_frame(&mut stream, MAX_FRAME) {
            Ok(Some(reply)) => {
                assert_eq!(reply[0], 1, "want an error status");
                assert!(matches!(read_frame(&mut stream, MAX_FRAME), Ok(None)));
            }
            Ok(None) => {}
            Err(e) => panic!("no error reply or EOF within 2 s: {e}"),
        }
        let mut ctl = TcpStream::connect(addr).unwrap();
        client_shutdown(&mut ctl).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn idle_client_does_not_block_shutdown() {
        let (_, bytes) = grid_bytes(16, 8);
        let (addr, handle) = spawn_server(bytes);
        // Client A connects and never sends a byte.
        let idle = TcpStream::connect(addr).unwrap();
        let mut ctl = TcpStream::connect(addr).unwrap();
        client_shutdown(&mut ctl).unwrap();
        let start = Instant::now();
        while !handle.is_finished() && start.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            handle.is_finished(),
            "server not returned {:?} after SHUTDOWN with an idle client",
            start.elapsed()
        );
        handle.join().unwrap();
        drop(idle);
    }

    #[test]
    fn f64_containers_serve_wide_samples() {
        let field = Field::from_fn_2d(32, 32, |i, j| ((i * 32 + j) as f64).sqrt());
        let cfg = SzConfig::new(ErrorBound::Abs(1e-6)).with_chunk_dims([8, 8, 0]);
        let bytes = compress(&field, &cfg).unwrap();
        let full: Vec<f64> = szlike::decompress::<f64>(&bytes).unwrap().as_slice().to_vec();
        let (addr, handle) = spawn_server(bytes);
        let mut stream = TcpStream::connect(addr).unwrap();
        let reply = client_read(&mut stream, &[5..9, 20..32]).unwrap();
        assert_eq!(reply.scalar_bytes, 8);
        assert_eq!(reply.dims, vec![4, 12]);
        let mut k = 0;
        for i in 5..9 {
            for j in 20..32 {
                let got =
                    f64::from_le_bytes(reply.data[8 * k..8 * k + 8].try_into().unwrap());
                assert_eq!(got.to_bits(), full[i * 32 + j].to_bits());
                k += 1;
            }
        }
        client_shutdown(&mut stream).unwrap();
        handle.join().unwrap();
    }
}
