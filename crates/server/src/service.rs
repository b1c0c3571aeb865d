//! The connection-serving core, factored out of the I/O server so any
//! request handler — the subfile [`Handler`](crate::Handler) or
//! `dpfs-metad`'s metadata handler — can sit behind the same runtime.
//!
//! The runtime keeps a **fixed** set of threads regardless of how many
//! clients connect, each blocked in `epoll_wait` until it has work. One
//! acceptor waits on the listener; a small set of I/O *shards* each own
//! many nonblocking connections, waking only for the connections the
//! kernel reports ready (or that another thread hands back through the
//! shard's eventfd), accumulating reads into per-connection buffers and
//! decoding frames incrementally ([`dpfs_proto::frame::decode_slice`]). A
//! shared worker pool services decoded requests and writes each encoded
//! response straight to the socket; only a reply the socket cannot take
//! whole is left for the shard to finish when the socket turns writable.
//! C10K-ready: thread count is `1 + SHARDS + WORKERS`, independent of
//! connections, and an idle server sleeps in the kernel.
//!
//! The serving contract: requests on one connection may overlap their
//! service times and complete out of order, each response frame echoing
//! its request's correlation and trace IDs; and the
//! `decode`/`queue`/`respond` server trace events mark each request's
//! path through the runtime.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dpfs_proto::{frame, Request, Response};
use parking_lot::Mutex;

use crate::handler::server_event;
use crate::poll::{Events, Interest, Poller};

/// A request handler an accept loop can serve: one response per request,
/// shared across shards and workers.
pub trait Service: Send + Sync + 'static {
    /// Name stamped on this service's trace events.
    fn name(&self) -> &str;
    /// Handle one request stamped with `trace_id` (0 = untraced),
    /// producing exactly one response. Must never panic on malformed
    /// input.
    fn handle_traced(&self, req: Request, trace_id: u64) -> Response;
    /// Called once per accepted connection (statistics hook).
    fn note_connection(&self) {}
}

/// I/O shard threads. Each shard owns a slice of the open connections.
pub const SHARDS: usize = 2;

/// Shared request-handling workers: the depth to which independent
/// requests — across *all* connections — overlap their service times.
const WORKERS: usize = 8;

/// Bytes one connection may pull off its socket per shard visit before
/// the shard moves on (fairness between connections on one shard).
const READ_BUDGET: usize = 256 * 1024;

/// Outbound-buffer cap per connection. A peer that stops reading while
/// responses pile up past this is severed rather than allowed to pin
/// unbounded memory. Must fit at least one max-size frame.
const OUTBUF_LIMIT: usize = 2 * frame::MAX_FRAME_LEN + 4096;

/// How long a draining shard waits for in-flight requests to finish and
/// their responses to flush before severing connections anyway.
const DRAIN_DEADLINE: Duration = Duration::from_secs(2);

/// Backoff before retrying `accept()` after `consecutive` straight
/// errors: exponential from 1 ms, capped at 100 ms. A persistent accept
/// failure (EMFILE, ENFILE) costs bounded CPU instead of pinning a core.
pub(crate) fn accept_error_backoff(consecutive: u32) -> Duration {
    let ms = 1u64 << consecutive.saturating_sub(1).min(7);
    Duration::from_millis(ms.min(100))
}

/// State every runtime thread shares.
struct Runtime {
    shutdown: AtomicBool,
    /// Watches the listener.
    acceptor: Poller,
    shards: Vec<Shard>,
    /// Open connections, counted from accept to close.
    conn_count: AtomicUsize,
}

impl Runtime {
    /// Raise the shutdown flag and wake every poller, so the acceptor exits
    /// and each shard starts draining now rather than at its next event.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.acceptor.wake();
        for shard in &self.shards {
            shard.poller.wake();
        }
    }
}

/// The cross-thread half of one shard: the poller its thread blocks in,
/// and the two lists other threads fill before waking it.
struct Shard {
    poller: Poller,
    /// Connections the acceptor handed over.
    inbox: Mutex<Vec<TcpStream>>,
    /// Tokens of connections a worker asked the shard to revisit.
    ready: Mutex<Vec<u64>>,
}

impl Shard {
    fn new() -> io::Result<Shard> {
        Ok(Shard {
            poller: Poller::new()?,
            inbox: Mutex::new(Vec::new()),
            ready: Mutex::new(Vec::new()),
        })
    }

    /// Push onto one of the hand-off lists, waking the shard only when
    /// the list was empty: the shard takes both lists right after each
    /// wait, so a non-empty list already has a wake-up on its way.
    fn hand_off<T>(&self, list: &Mutex<Vec<T>>, item: T) {
        let first = {
            let mut list = list.lock();
            list.push(item);
            list.len() == 1
        };
        if first {
            self.poller.wake();
        }
    }

    fn adopt(&self, stream: TcpStream) {
        self.hand_off(&self.inbox, stream);
    }

    fn notify(&self, token: u64) {
        self.hand_off(&self.ready, token);
    }
}

/// Outbound bytes for one connection that the socket has not taken yet.
/// `pos` marks how far the flush has gotten.
#[derive(Default)]
struct OutBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl OutBuf {
    fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Write queued bytes until the buffer empties or the socket would block.
/// An error or a zero-length write means the connection is gone.
fn flush(mut stream: &TcpStream, out: &mut OutBuf) -> io::Result<()> {
    while out.pending() > 0 {
        match stream.write(&out.buf[out.pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => out.pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if out.pending() == 0 {
        out.buf.clear();
        out.pos = 0;
    }
    Ok(())
}

/// The worker-visible half of one connection: the socket replies go to,
/// plus the counters the shard uses for drain decisions.
struct ConnIo {
    /// The shard reads it; whoever holds `outbuf`'s lock writes it.
    stream: TcpStream,
    /// Index of the owning shard, and this connection's token there.
    shard: usize,
    token: u64,
    outbuf: Mutex<OutBuf>,
    /// Requests dispatched but not yet answered (sent or queued).
    inflight: AtomicUsize,
    /// The shard is waiting for `inflight` to reach zero (peer EOF or
    /// drain); the worker that finishes the last request wakes it.
    wake_when_idle: AtomicBool,
    /// Set by a worker when the connection failed or `outbuf`
    /// overflowed; the shard severs.
    dead: AtomicBool,
}

/// Encode one response frame (echoing the request's correlation and trace
/// IDs) and queue it on the connection. Whole frames
/// only — the buffer never holds a partial frame at its append edge, so
/// per-connection responses stay serialized. With nothing queued ahead of
/// it the frame goes straight to the socket; behind a backlog it waits
/// for the shard, which already knows about the backlog.
///
/// Returns true when the shard must look at the connection: bytes are
/// left over, or the connection died.
fn enqueue_response(io: &ConnIo, corr_id: u64, trace_id: u64, resp: &Response) -> bool {
    let payload = resp.encode();
    let mut out = io.outbuf.lock();
    let backlog = out.pending() > 0;
    if frame::write_frame(&mut out.buf, corr_id, trace_id, &[&payload]).is_err()
        || out.pending() > OUTBUF_LIMIT
        || (!backlog && flush(&io.stream, &mut out).is_err())
    {
        io.dead.store(true, Ordering::SeqCst);
        return true;
    }
    !backlog && out.pending() > 0
}

/// One decoded request bound for the shared worker pool.
struct Job {
    corr_id: u64,
    /// Trace ID from the request frame (0 = untraced).
    trace_id: u64,
    /// [`dpfs_obs::now_ns`] at enqueue, for the queue-wait span.
    enqueued_ns: u64,
    req: Request,
    io: Arc<ConnIo>,
}

/// One connection owned by a shard.
struct ShardConn {
    io: Arc<ConnIo>,
    /// Unparsed bytes read off the socket.
    inbuf: Vec<u8>,
    /// Peer sent FIN; stop reading, finish what's in flight, then close.
    peer_eof: bool,
    /// A `Shutdown` request was decoded; stop reading ahead of the drain.
    stop_reading: bool,
    /// What the socket is registered for in the shard's poller; `None`
    /// while it is out of the set.
    registered: Option<Interest>,
}

/// Why a connection left its shard.
enum ConnFate {
    Keep,
    Close,
}

/// Take over a freshly accepted connection: nonblocking, registered for
/// reads under `token`. `None` (connection refused) if setup fails.
fn open_conn(poller: &Poller, shard: usize, token: u64, stream: TcpStream) -> Option<ShardConn> {
    stream.set_nodelay(true).ok();
    if stream.set_nonblocking(true).is_err() || poller.add(&stream, token, Interest::READ).is_err()
    {
        let _ = stream.shutdown(Shutdown::Both);
        return None;
    }
    Some(ShardConn {
        io: Arc::new(ConnIo {
            stream,
            shard,
            token,
            outbuf: Mutex::new(OutBuf::default()),
            inflight: AtomicUsize::new(0),
            wake_when_idle: AtomicBool::new(false),
            dead: AtomicBool::new(false),
        }),
        inbuf: Vec::new(),
        peer_eof: false,
        stop_reading: false,
        registered: Some(Interest::READ),
    })
}

/// Deregister and sever. Deregistering comes first: an in-flight job's
/// `Arc<ConnIo>` keeps the descriptor open after the shard lets go, and
/// a registered descriptor would keep firing.
fn close_conn(poller: &Poller, c: ShardConn, conn_count: &AtomicUsize) {
    if c.registered.is_some() {
        let _ = poller.delete(&c.io.stream);
    }
    let _ = c.io.stream.shutdown(Shutdown::Both);
    conn_count.fetch_sub(1, Ordering::SeqCst);
}

/// Register the connection for exactly what it waits on: reads until it
/// stops reading, writes while bytes are queued. A connection waiting on
/// neither leaves the poll set — epoll reports a hang-up even to an empty
/// interest set, which would spin the shard — and is brought back by a
/// worker's wake-up instead.
fn sync_interest(poller: &Poller, c: &mut ShardConn, draining: bool) -> io::Result<()> {
    let want = Interest {
        readable: !draining && !c.peer_eof && !c.stop_reading,
        writable: c.io.outbuf.lock().pending() > 0,
    };
    let want = (want.readable || want.writable).then_some(want);
    if want != c.registered {
        match want {
            Some(i) if c.registered.is_some() => poller.modify(&c.io.stream, c.io.token, i)?,
            Some(i) => poller.add(&c.io.stream, c.io.token, i)?,
            None => poller.delete(&c.io.stream)?,
        }
        c.registered = want;
    }
    Ok(())
}

/// One shard thread: block until a connection it owns is ready or another
/// thread hands it work, then service exactly those connections.
fn shard_loop(rt: Arc<Runtime>, idx: usize, service: Arc<dyn Service>, jobs: mpsc::Sender<Job>) {
    let shard = &rt.shards[idx];
    let mut conns: HashMap<u64, ShardConn> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut scratch = vec![0u8; 64 * 1024];
    let mut events = Events::with_capacity(256);
    let mut todo: Vec<u64> = Vec::new();
    let mut drain_deadline: Option<Instant> = None;
    loop {
        let timeout = drain_deadline.map(|d| d.saturating_duration_since(Instant::now()));
        shard
            .poller
            .wait(&mut events, timeout)
            .expect("epoll_wait on the shard's own epoll descriptor");
        todo.clear();
        todo.extend(events.tokens());
        todo.append(&mut shard.ready.lock());
        let draining = rt.shutdown.load(Ordering::SeqCst);
        if !draining {
            for stream in std::mem::take(&mut *shard.inbox.lock()) {
                match open_conn(&shard.poller, idx, next_token, stream) {
                    Some(c) => {
                        conns.insert(next_token, c);
                        next_token += 1;
                    }
                    None => {
                        rt.conn_count.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            }
        }
        if draining && drain_deadline.is_none() {
            // From here connections only flush: revisit each once to drop
            // its read interest, then let the last worker on each wake us.
            drain_deadline = Some(Instant::now() + DRAIN_DEADLINE);
            for c in conns.values() {
                c.io.wake_when_idle.store(true, Ordering::SeqCst);
            }
            todo.extend(conns.keys());
        }
        todo.sort_unstable();
        todo.dedup();
        for token in &todo {
            // A worker may name a connection that has closed since.
            let Some(c) = conns.get_mut(token) else {
                continue;
            };
            let keep = matches!(
                service_conn(c, draining, &service, &jobs, &mut scratch),
                ConnFate::Keep
            ) && sync_interest(&shard.poller, c, draining).is_ok();
            if !keep {
                if let Some(c) = conns.remove(token) {
                    close_conn(&shard.poller, c, &rt.conn_count);
                }
            }
        }
        if let Some(deadline) = drain_deadline {
            let drained = conns.values().all(|c| {
                c.io.inflight.load(Ordering::SeqCst) == 0 && c.io.outbuf.lock().pending() == 0
            });
            if drained || Instant::now() >= deadline {
                for (_, c) in conns.drain() {
                    close_conn(&shard.poller, c, &rt.conn_count);
                }
                for s in shard.inbox.lock().drain(..) {
                    let _ = s.shutdown(Shutdown::Both);
                    rt.conn_count.fetch_sub(1, Ordering::SeqCst);
                }
                return;
            }
        }
    }
}

/// One shard visit to one connection: flush pending responses, then (if
/// not draining) read, decode, and dispatch new requests.
fn service_conn(
    c: &mut ShardConn,
    draining: bool,
    service: &Arc<dyn Service>,
    jobs: &mpsc::Sender<Job>,
    scratch: &mut [u8],
) -> ConnFate {
    if c.io.dead.load(Ordering::SeqCst) || flush(&c.io.stream, &mut c.io.outbuf.lock()).is_err() {
        return ConnFate::Close;
    }
    if draining {
        return ConnFate::Keep;
    }
    // Read: pull bytes while the fairness budget lasts. Level-triggered
    // polling reports a connection cut off by the budget again on the
    // next wait.
    if !c.peer_eof && !c.stop_reading {
        let mut read_total = 0usize;
        loop {
            match (&c.io.stream).read(scratch) {
                Ok(0) => {
                    c.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    c.inbuf.extend_from_slice(&scratch[..n]);
                    read_total += n;
                    if read_total >= READ_BUDGET {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return ConnFate::Close,
            }
        }
    }
    // Decode: complete frames become jobs (or inline error replies);
    // partial frames wait for more bytes; corruption drops the
    // connection, exactly like the blocking runtime did.
    let mut consumed = 0usize;
    let fate = loop {
        if c.stop_reading {
            break ConnFate::Keep;
        }
        match frame::decode_slice(&c.inbuf[consumed..]) {
            Ok(Some((fr, used))) => {
                consumed += used;
                if !dispatch_frame(c, fr, service, jobs) {
                    break ConnFate::Close;
                }
            }
            Ok(None) => break ConnFate::Keep,
            Err(_) => break ConnFate::Close,
        }
    };
    if consumed > 0 {
        c.inbuf.drain(..consumed);
    }
    if matches!(fate, ConnFate::Close) || c.io.dead.load(Ordering::SeqCst) {
        return ConnFate::Close;
    }
    // Peer gone: close once everything it asked for has been answered and
    // flushed. Until then the connection sits out of the poll set and the
    // worker finishing its last request wakes the shard. The flag goes up
    // before the in-flight check so that one of the two sides sees the
    // other.
    if c.peer_eof {
        c.io.wake_when_idle.store(true, Ordering::SeqCst);
        if c.io.inflight.load(Ordering::SeqCst) == 0 && c.io.outbuf.lock().pending() == 0 {
            return ConnFate::Close;
        }
    }
    ConnFate::Keep
}

/// Decode one frame's request and dispatch it to the worker pool.
/// Returns false when the connection should be dropped.
fn dispatch_frame(
    c: &mut ShardConn,
    fr: frame::Frame,
    service: &Arc<dyn Service>,
    jobs: &mpsc::Sender<Job>,
) -> bool {
    let decode_start = dpfs_obs::now_ns();
    let trace_id = fr.trace_id;
    let corr_id = fr.corr_id;
    let req = match Request::decode(fr.payload) {
        Ok(r) => r,
        Err(e) => {
            // Malformed request: report and keep the connection. The shard
            // syncs its interest after this visit, so leftovers need no
            // wake-up.
            enqueue_response(
                &c.io,
                corr_id,
                trace_id,
                &Response::Error {
                    code: dpfs_proto::ErrorCode::BadRequest,
                    message: e.to_string(),
                },
            );
            return true;
        }
    };
    server_event(
        trace_id,
        "decode",
        req.kind_str(),
        service.name(),
        decode_start,
        dpfs_obs::now_ns().saturating_sub(decode_start),
        req.payload_bytes(),
    );
    if matches!(req, Request::Shutdown) {
        c.stop_reading = true;
    }
    c.io.inflight.fetch_add(1, Ordering::SeqCst);
    let job = Job {
        corr_id,
        trace_id,
        enqueued_ns: dpfs_obs::now_ns(),
        req,
        io: c.io.clone(),
    };
    jobs.send(job).is_ok()
}

/// One shared worker: pull jobs, handle, send the encoded response (or
/// queue it behind a backlog), and wake the owning shard only when it has
/// something to do.
fn worker_loop(rx: Arc<Mutex<mpsc::Receiver<Job>>>, service: Arc<dyn Service>, rt: Arc<Runtime>) {
    loop {
        // Classic shared-receiver pool: the guard drops as soon as recv
        // returns, handing the receiver to the next idle worker.
        let job = match rx.lock().recv() {
            Ok(j) => j,
            Err(_) => return, // every shard exited: drain finished
        };
        let is_shutdown = matches!(job.req, Request::Shutdown);
        let kind = job.req.kind_str();
        let dequeued = dpfs_obs::now_ns();
        server_event(
            job.trace_id,
            "queue",
            kind,
            service.name(),
            job.enqueued_ns,
            dequeued.saturating_sub(job.enqueued_ns),
            0,
        );
        let resp = service.handle_traced(job.req, job.trace_id);
        let t0 = dpfs_obs::now_ns();
        let revisit = enqueue_response(&job.io, job.corr_id, job.trace_id, &resp);
        server_event(
            job.trace_id,
            "respond",
            kind,
            service.name(),
            t0,
            dpfs_obs::now_ns().saturating_sub(t0),
            0,
        );
        // Only decrement after the response is queued: a shard that
        // observes zero in flight and an empty buffer knows nothing is
        // still owed.
        let idle = job.io.inflight.fetch_sub(1, Ordering::SeqCst) == 1;
        if revisit || (idle && job.io.wake_when_idle.load(Ordering::SeqCst)) {
            rt.shards[job.io.shard].notify(job.io.token);
        }
        if is_shutdown {
            // The response is already sent; this drains the whole server —
            // acceptor, shards, and idle connections — exactly like
            // ServeCore::stop.
            rt.begin_shutdown();
        }
    }
}

/// The acceptor: blocks until the listener is readable or a shutdown
/// wakes it, parks new connections in shard inboxes round-robin, and
/// backs off on persistent accept errors.
fn acceptor_loop(listener: TcpListener, service: Arc<dyn Service>, rt: Arc<Runtime>) {
    let mut events = Events::with_capacity(2);
    let mut next = 0usize;
    accept_loop_impl(
        || listener.accept().map(|(s, _)| s),
        || rt.acceptor.wait(&mut events, None),
        &rt.shutdown,
        |stream| {
            service.note_connection();
            rt.conn_count.fetch_add(1, Ordering::SeqCst);
            rt.shards[next % rt.shards.len()].adopt(stream);
            next += 1;
        },
    );
}

/// The accept policy, factored out so tests can inject a failing
/// `accept`: `WouldBlock` blocks in `wait` until the listener is ready or
/// a wake-up arrives; success resets the error streak; any other error,
/// from either, sleeps [`accept_error_backoff`].
fn accept_loop_impl(
    mut accept: impl FnMut() -> io::Result<TcpStream>,
    mut wait: impl FnMut() -> io::Result<()>,
    shutdown: &AtomicBool,
    mut dispatch: impl FnMut(TcpStream),
) {
    let mut consecutive_errors: u32 = 0;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let res = match accept() {
            Ok(stream) => {
                consecutive_errors = 0;
                dispatch(stream);
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => wait(),
            Err(e) => Err(e),
        };
        if res.is_err() {
            consecutive_errors = consecutive_errors.saturating_add(1);
            std::thread::sleep(accept_error_backoff(consecutive_errors));
        }
    }
}

/// A running TCP server around one [`Service`]. Dropping the handle shuts
/// it down.
pub struct ServeCore {
    addr: SocketAddr,
    rt: Arc<Runtime>,
    accept_thread: Option<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl ServeCore {
    /// Bind `bind` (ephemeral port with `:0`) and start serving `service`.
    pub fn start(bind: &str, service: Arc<dyn Service>) -> io::Result<ServeCore> {
        // Every fallible setup step runs before the first thread exists,
        // so a failure is an error from here rather than a server that
        // looks alive and never accepts.
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let acceptor = Poller::new()?;
        acceptor.add(&listener, 0, Interest::READ)?;
        let shards = (0..SHARDS)
            .map(|_| Shard::new())
            .collect::<io::Result<Vec<_>>>()?;
        let rt = Arc::new(Runtime {
            shutdown: AtomicBool::new(false),
            acceptor,
            shards,
            conn_count: AtomicUsize::new(0),
        });
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let mut shard_threads = Vec::with_capacity(SHARDS);
        for i in 0..SHARDS {
            let rt = rt.clone();
            let service = service.clone();
            let jobs = tx.clone();
            shard_threads.push(
                std::thread::Builder::new()
                    .name(format!("dpfs-shard-{i}-{}", service.name()))
                    .spawn(move || shard_loop(rt, i, service, jobs))?,
            );
        }
        // Only shards hold senders: when the last shard drains and exits,
        // the channel closes and the workers follow.
        drop(tx);
        let mut worker_threads = Vec::with_capacity(WORKERS);
        for _ in 0..WORKERS {
            let rx = rx.clone();
            let service = service.clone();
            let rt = rt.clone();
            worker_threads.push(
                std::thread::Builder::new()
                    .name(format!("dpfs-worker-{}", service.name()))
                    .spawn(move || worker_loop(rx, service, rt))?,
            );
        }
        let accept_rt = rt.clone();
        let accept_thread = std::thread::Builder::new()
            .name(format!("dpfs-accept-{}", service.name()))
            .spawn(move || acceptor_loop(listener, service, accept_rt))?;
        Ok(ServeCore {
            addr,
            rt,
            accept_thread: Some(accept_thread),
            shard_threads,
            worker_threads,
        })
    }

    /// The listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of currently open client connections. (Connections
    /// deregister asynchronously after the peer closes, so a just-closed
    /// connection may be counted briefly.)
    pub fn open_connections(&self) -> usize {
        self.rt.conn_count.load(Ordering::SeqCst)
    }

    /// Threads this runtime owns: acceptor + shards + workers, fixed at
    /// start and independent of connections.
    pub fn runtime_threads(&self) -> usize {
        1 + self.shard_threads.len() + self.worker_threads.len()
    }

    /// Stop accepting, drain or sever live connections, and join every
    /// runtime thread. When this returns, the listener is closed, no
    /// server thread is running, and the port can be rebound immediately —
    /// a later restart on the same address never races a lingering
    /// listener or half-dead connection handler. Idempotent, and also
    /// finishes the job after a wire `Request::Shutdown` already quiesced
    /// the threads.
    pub fn stop(&mut self) {
        self.rt.begin_shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Shards drain in-flight work (bounded by DRAIN_DEADLINE), sever
        // their connections, and exit; the job channel closes with them
        // and the workers follow.
        for t in self.shard_threads.drain(..) {
            let _ = t.join();
        }
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        // Connections the acceptor parked after the shards exited.
        for shard in &self.rt.shards {
            for s in shard.inbox.lock().drain(..) {
                let _ = s.shutdown(Shutdown::Both);
                self.rt.conn_count.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

impl Drop for ServeCore {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_error_backoff_is_bounded_and_grows() {
        assert_eq!(accept_error_backoff(1), Duration::from_millis(1));
        assert_eq!(accept_error_backoff(2), Duration::from_millis(2));
        assert_eq!(accept_error_backoff(5), Duration::from_millis(16));
        assert_eq!(accept_error_backoff(8), Duration::from_millis(100));
        assert_eq!(accept_error_backoff(u32::MAX), Duration::from_millis(100));
    }

    /// A listener that fails every accept() must cost a bounded number of
    /// retries per unit time, not a busy-spun core — and the loop must
    /// still notice shutdown.
    #[test]
    fn failing_accept_backs_off_instead_of_spinning() {
        let shutdown = Arc::new(AtomicBool::new(false));
        let attempts = Arc::new(AtomicUsize::new(0));
        let t = {
            let shutdown = shutdown.clone();
            let attempts = attempts.clone();
            std::thread::spawn(move || {
                accept_loop_impl(
                    || {
                        attempts.fetch_add(1, Ordering::SeqCst);
                        Err(io::Error::other("emfile injected"))
                    },
                    || panic!("a failing acceptor never reports WouldBlock"),
                    &shutdown,
                    |_stream| panic!("failing acceptor never yields a connection"),
                );
            })
        };
        std::thread::sleep(Duration::from_millis(300));
        let n = attempts.load(Ordering::SeqCst);
        assert!(n >= 1, "the loop must keep retrying");
        // Without backoff this is millions; with 1→100 ms exponential
        // backoff, 300 ms fits only a handful of attempts.
        assert!(n <= 64, "accept retried {n} times in 300ms: busy-spin");
        shutdown.store(true, Ordering::SeqCst);
        t.join().unwrap();
    }
}
