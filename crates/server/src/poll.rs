//! Readiness polling for the serving runtime: one level-triggered `epoll`
//! instance per polling thread, paired with an `eventfd` that other
//! threads write to wake it.
//!
//! This module holds every `unsafe` block of the runtime. It declares the
//! four Linux calls it needs against the libc that std already links, so
//! no crate is pulled in; the file descriptors themselves are owned by std
//! types ([`OwnedFd`], [`File`]), which close them on drop.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::os::raw::{c_int, c_uint};
use std::time::Duration;

const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EFD_CLOEXEC: c_int = 0o2_000_000;
const EFD_NONBLOCK: c_int = 0o4_000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLRDHUP: u32 = 0x2000;

/// Token the poller's own eventfd is registered under; never reported.
const WAKE_TOKEN: u64 = u64::MAX;

/// The kernel's `struct epoll_event`, which x86-64 declares packed.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
}

/// Wrap a descriptor a libc call returned, or its `errno` on failure.
fn owned(fd: c_int) -> io::Result<OwnedFd> {
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` was just returned by a successful create call, so it is
    // an open descriptor nothing else owns.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// What a registered descriptor is watched for. Registrations are
/// level-triggered: a socket with unread bytes (or free send space) is
/// reported on every wait until the condition clears.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Bytes to read, or the peer closed its side.
    pub readable: bool,
    /// Send-buffer space for pending outbound bytes.
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    fn bits(self) -> u32 {
        let mut bits = 0;
        if self.readable {
            bits |= EPOLLIN | EPOLLRDHUP;
        }
        if self.writable {
            bits |= EPOLLOUT;
        }
        bits
    }
}

/// One epoll set plus its wake-up eventfd. Shared by reference between the
/// thread that waits on it and any thread that calls [`Poller::wake`].
pub(crate) struct Poller {
    epoll: OwnedFd,
    wake: File,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain system calls taking integer flags only.
        let epoll = owned(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: as above.
        let wake = File::from(owned(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?);
        let poller = Poller { epoll, wake };
        poller.ctl(EPOLL_CTL_ADD, &poller.wake, WAKE_TOKEN, EPOLLIN)?;
        Ok(poller)
    }

    fn ctl(&self, op: c_int, fd: &impl AsRawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a valid, live `epoll_event` for the duration of
        // the call (the kernel ignores it for EPOLL_CTL_DEL); both
        // descriptors are borrowed from owners that keep them open.
        let rc = unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd.as_raw_fd(), &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Watch `fd` for `interest`, reporting it as `token`.
    pub fn add(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest.bits())
    }

    /// Change what an added `fd` is watched for.
    pub fn modify(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest.bits())
    }

    /// Stop watching `fd`. Call it before `fd` closes: a registration
    /// follows the open file description, so a duplicate held elsewhere
    /// keeps it firing, and once `fd` is closed nothing can remove it.
    pub fn delete(&self, fd: &impl AsRawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Make the current or next [`Poller::wait`] return. Wakes coalesce:
    /// any number before a wait cost that wait one return.
    pub fn wake(&self) {
        // A full counter (EAGAIN) already guarantees a pending wake-up.
        let _ = (&self.wake).write(&1u64.to_ne_bytes());
    }

    /// Block until a registered descriptor is ready, [`Poller::wake`] is
    /// called, or `timeout` (`None` = forever) passes, then fill `events`
    /// with the ready tokens. A signal interruption returns no tokens.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        let ms = match timeout {
            None => -1,
            // Round up so a sub-millisecond remainder sleeps instead of
            // spinning on a zero timeout.
            Some(d) => d.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int,
        };
        events.len = 0;
        // SAFETY: the buffer holds `buf.len()` initialized events, and the
        // kernel writes at most `maxevents` of them.
        let n = unsafe {
            epoll_wait(
                self.epoll.as_raw_fd(),
                events.buf.as_mut_ptr(),
                events.buf.len() as c_int,
                ms,
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            return if e.kind() == io::ErrorKind::Interrupted {
                Ok(())
            } else {
                Err(e)
            };
        }
        events.len = n as usize;
        if events.buf[..events.len]
            .iter()
            .any(|ev| ev.data == WAKE_TOKEN)
        {
            // Reset the counter so the level-triggered eventfd stops firing.
            let _ = (&self.wake).read(&mut [0u8; 8]);
        }
        Ok(())
    }
}

/// Reusable output buffer for [`Poller::wait`].
pub(crate) struct Events {
    buf: Vec<EpollEvent>,
    len: usize,
}

impl Events {
    pub fn with_capacity(n: usize) -> Events {
        Events {
            buf: vec![EpollEvent { events: 0, data: 0 }; n.max(1)],
            len: 0,
        }
    }

    /// Tokens the last wait reported ready (wake-ups excluded).
    pub fn tokens(&self) -> impl Iterator<Item = u64> + '_ {
        self.buf[..self.len]
            .iter()
            .map(|ev| ev.data)
            .filter(|&t| t != WAKE_TOKEN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::Instant;

    const SHORT: Option<Duration> = Some(Duration::from_millis(20));

    fn ready(p: &Poller, timeout: Option<Duration>) -> Vec<u64> {
        let mut ev = Events::with_capacity(8);
        p.wait(&mut ev, timeout).unwrap();
        ev.tokens().collect()
    }

    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        (a, b)
    }

    #[test]
    fn wake_from_another_thread_unblocks_an_infinite_wait() {
        let p = Arc::new(Poller::new().unwrap());
        let waker = {
            let p = p.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                p.wake();
            })
        };
        let t0 = Instant::now();
        assert!(ready(&p, None).is_empty(), "a wake reports no token");
        assert!(t0.elapsed() >= Duration::from_millis(40));
        waker.join().unwrap();
        // Consumed: the next wait times out instead of returning at once.
        assert!(ready(&p, SHORT).is_empty());
    }

    #[test]
    fn wakes_coalesce_into_one_return() {
        let p = Poller::new().unwrap();
        for _ in 0..5 {
            p.wake();
        }
        let t0 = Instant::now();
        ready(&p, SHORT);
        assert!(t0.elapsed() < Duration::from_millis(15));
        let t0 = Instant::now();
        ready(&p, SHORT);
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn readable_is_level_triggered_until_drained() {
        let p = Poller::new().unwrap();
        let (mut a, mut b) = pair();
        p.add(&b, 7, Interest::READ).unwrap();
        assert!(ready(&p, Some(Duration::ZERO)).is_empty());
        a.write_all(b"hello").unwrap();
        assert_eq!(ready(&p, SHORT), vec![7]);
        assert_eq!(ready(&p, SHORT), vec![7], "unread bytes keep firing");
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).unwrap();
        assert!(ready(&p, Some(Duration::ZERO)).is_empty());
    }

    #[test]
    fn modify_and_delete_change_what_is_reported() {
        let p = Poller::new().unwrap();
        let (_a, b) = pair();
        p.add(&b, 3, Interest::READ).unwrap();
        assert!(ready(&p, Some(Duration::ZERO)).is_empty());
        let rw = Interest {
            readable: true,
            writable: true,
        };
        p.modify(&b, 4, rw).unwrap();
        assert_eq!(ready(&p, SHORT), vec![4], "an idle socket is writable");
        p.delete(&b).unwrap();
        assert!(ready(&p, Some(Duration::ZERO)).is_empty());
        assert!(p.delete(&b).is_err(), "not registered any more");
    }

    #[test]
    fn registration_outlives_a_dropped_duplicate() {
        // Why the runtime always deregisters before it lets go of a
        // socket: the epoll entry belongs to the file description, which a
        // clone held elsewhere keeps alive, and once the registered
        // descriptor is closed the clone cannot remove the entry.
        let p = Poller::new().unwrap();
        let (mut a, b) = pair();
        let dup = b.try_clone().unwrap();
        p.add(&b, 9, Interest::READ).unwrap();
        drop(b);
        a.write_all(b"x").unwrap();
        assert_eq!(ready(&p, SHORT), vec![9]);
        assert!(p.delete(&dup).is_err());
        assert_eq!(ready(&p, SHORT), vec![9], "still firing");
        drop(dup);
        assert!(ready(&p, Some(Duration::ZERO)).is_empty());
    }
}
