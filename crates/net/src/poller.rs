//! A small dependency-free readiness poller for the front-end's event loop.
//!
//! Two backends behind one API:
//!
//! * **epoll** on Linux — O(ready) wakeups, comfortable at 10k+
//!   registered connections;
//! * **poll(2)** on every other Unix — O(registered) per wait, fine for
//!   the connection counts a development laptop sees.
//!
//! Neither pulls in a crate: both talk to libc symbols that `std`
//! already links (`extern "C"` declarations, no `libc` dependency). The
//! unsafe surface is confined to this module and consists entirely of
//! well-formed syscall invocations over locally owned buffers.
//!
//! Level-triggered semantics on both backends: an fd stays ready until
//! its condition is consumed, so a handler that stops mid-read (e.g. the
//! in-flight cap pausing a connection) simply sees the fd again on the
//! next wait once it re-arms read interest.
//!
//! The [`Waker`] is a nonblocking `UnixStream` pair rather than an
//! eventfd so cross-thread wakeups need no extra syscall declarations:
//! any thread writes a byte, the event loop drains it.

use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// What an fd is registered to report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Write-only interest.
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        read: true,
        write: true,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable (data available, or EOF pending — a read will not block).
    pub readable: bool,
    /// Writable without blocking.
    pub writable: bool,
    /// Error/hangup condition; the fd should be read to completion and
    /// closed.
    pub hangup: bool,
}

// ---------------------------------------------------------------------------
// Linux: epoll
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod backend {
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    // x86-64 is the one ABI where the kernel's epoll_event is packed.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        events: u32,
        data: u64,
    }
    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    fn cvt(r: i32) -> io::Result<i32> {
        if r < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(r)
        }
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.read {
            m |= EPOLLIN;
        }
        if interest.write {
            m |= EPOLLOUT;
        }
        m
    }

    /// epoll-backed poller.
    pub struct Backend {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl Backend {
        pub fn new() -> io::Result<Backend> {
            // SAFETY: plain syscall, no pointers involved.
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Backend {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        pub fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            // SAFETY: `ev` is a live, properly laid out epoll_event.
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) }).map(|_| ())
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            // SAFETY: as above.
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_MOD, fd, &mut ev) }).map(|_| ())
        }

        pub fn remove(&mut self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: the event argument is ignored for DEL on modern
            // kernels but must be non-null on pre-2.6.9 ones.
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let timeout_ms = timeout
                .map(|d| d.as_millis().min(i32::MAX as u128) as i32)
                .unwrap_or(-1);
            // SAFETY: `buf` outlives the call and maxevents matches its
            // length.
            let n = loop {
                let r = unsafe {
                    epoll_wait(
                        self.epfd,
                        self.buf.as_mut_ptr(),
                        self.buf.len() as i32,
                        timeout_ms,
                    )
                };
                match cvt(r) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for i in 0..n {
                // Copy out of the (possibly packed) struct before use.
                let ev = self.buf[i];
                let events = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: events & EPOLLOUT != 0,
                    hangup: events & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            if n == self.buf.len() {
                // Saturated: grow so a 10k-conn stampede drains in few
                // syscalls.
                let len = self.buf.len() * 2;
                self.buf.resize(len, EpollEvent { events: 0, data: 0 });
            }
            Ok(())
        }
    }

    impl Drop for Backend {
        fn drop(&mut self) {
            // SAFETY: epfd is owned by this struct and closed once.
            unsafe { close(self.epfd) };
        }
    }
}

// ---------------------------------------------------------------------------
// Other Unix: poll(2)
// ---------------------------------------------------------------------------

#[cfg(all(unix, not(target_os = "linux")))]
mod backend {
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::c_ulong;
    use std::time::Duration;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout_ms: i32) -> i32;
    }

    /// poll(2)-backed poller: a dense registration list rebuilt lazily.
    pub struct Backend {
        fds: Vec<PollFd>,
        tokens: Vec<u64>,
    }

    impl Backend {
        pub fn new() -> io::Result<Backend> {
            Ok(Backend {
                fds: Vec::new(),
                tokens: Vec::new(),
            })
        }

        fn events_for(interest: Interest) -> i16 {
            let mut e = 0;
            if interest.read {
                e |= POLLIN;
            }
            if interest.write {
                e |= POLLOUT;
            }
            e
        }

        pub fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.fds.push(PollFd {
                fd,
                events: Self::events_for(interest),
                revents: 0,
            });
            self.tokens.push(token);
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            for (p, t) in self.fds.iter_mut().zip(self.tokens.iter_mut()) {
                if p.fd == fd {
                    p.events = Self::events_for(interest);
                    *t = token;
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub fn remove(&mut self, fd: RawFd) -> io::Result<()> {
            if let Some(i) = self.fds.iter().position(|p| p.fd == fd) {
                self.fds.swap_remove(i);
                self.tokens.swap_remove(i);
                Ok(())
            } else {
                Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
            }
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let timeout_ms = timeout
                .map(|d| d.as_millis().min(i32::MAX as u128) as i32)
                .unwrap_or(-1);
            // SAFETY: the fd slice is owned and nfds matches its length.
            let n = loop {
                let r =
                    unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as c_ulong, timeout_ms) };
                if r >= 0 {
                    break r;
                }
                let e = io::Error::last_os_error();
                if e.kind() != io::ErrorKind::Interrupted {
                    return Err(e);
                }
            };
            if n > 0 {
                for (p, &token) in self.fds.iter().zip(&self.tokens) {
                    if p.revents != 0 {
                        out.push(Event {
                            token,
                            readable: p.revents & (POLLIN | POLLHUP) != 0,
                            writable: p.revents & POLLOUT != 0,
                            hangup: p.revents & (POLLERR | POLLHUP) != 0,
                        });
                    }
                }
            }
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// public wrapper
// ---------------------------------------------------------------------------

/// Readiness poller over registered raw fds.
///
/// Tokens are opaque `u64`s chosen by the caller and echoed in events; an
/// fd must be [`remove`](Self::remove)d before it is closed (epoll would
/// otherwise keep stale registrations alive via the kernel's file
/// reference).
pub struct Poller {
    backend: backend::Backend,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller").finish()
    }
}

impl Poller {
    /// Creates an empty poller.
    ///
    /// # Errors
    ///
    /// Propagates the backend's creation failure (fd exhaustion).
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            backend: backend::Backend::new()?,
        })
    }

    /// Registers `fd` under `token` with the given interest.
    ///
    /// # Errors
    ///
    /// Fails if the fd is already registered (epoll) or invalid.
    pub fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.add(fd, token, interest)
    }

    /// Changes the interest (and token) of a registered fd.
    ///
    /// # Errors
    ///
    /// Fails if the fd is not registered.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.modify(fd, token, interest)
    }

    /// Unregisters an fd. Call before closing it.
    ///
    /// # Errors
    ///
    /// Fails if the fd is not registered.
    pub fn remove(&mut self, fd: RawFd) -> io::Result<()> {
        self.backend.remove(fd)
    }

    /// Blocks until at least one registered fd is ready (or the timeout
    /// expires), appending readiness reports to `out`. `None` blocks
    /// indefinitely. Spurious wakeups (empty `out`) are allowed.
    ///
    /// # Errors
    ///
    /// Propagates syscall failures other than `EINTR` (which retries).
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        self.backend.wait(out, timeout)
    }
}

/// Cross-thread wakeup for an event loop blocked in [`Poller::wait`].
///
/// Register [`Waker::fd`] for read interest under a reserved token; any
/// thread may call [`wake`](Self::wake), and the loop calls
/// [`drain`](Self::drain) when that token reports readable.
#[derive(Debug)]
pub struct Waker {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    /// Creates the pair; both ends are nonblocking.
    ///
    /// # Errors
    ///
    /// Propagates socketpair failure (fd exhaustion).
    pub fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// The fd to register for read interest.
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Wakes the loop. Never blocks: if the pipe is already full the loop
    /// has a wakeup pending and the write is unnecessary.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.tx).write(&[1u8]);
    }

    /// Drains pending wake bytes. Call on readiness of [`fd`](Self::fd).
    pub fn drain(&self) {
        use std::io::Read;
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// A cheap clone-able handle that can wake the loop from other threads.
#[derive(Debug, Clone)]
pub struct WakeHandle {
    tx: std::sync::Arc<UnixStream>,
}

impl Waker {
    /// A handle other threads can hold to wake this loop.
    pub fn handle(&self) -> io::Result<WakeHandle> {
        Ok(WakeHandle {
            tx: std::sync::Arc::new(self.tx.try_clone()?),
        })
    }
}

impl WakeHandle {
    /// Wakes the loop (see [`Waker::wake`]).
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&*self.tx).write(&[1u8]);
    }
}

/// The process's soft open-file limit, if it can be read.
///
/// The connection-scaling bench and the high-connection smoke test size
/// themselves off this so they skip gracefully in fd-capped sandboxes.
pub fn fd_soft_limit() -> Option<u64> {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    }
    // RLIMIT_NOFILE is 7 on Linux, 8 on the BSDs/macOS.
    #[cfg(target_os = "linux")]
    const RLIMIT_NOFILE: i32 = 7;
    #[cfg(not(target_os = "linux"))]
    const RLIMIT_NOFILE: i32 = 8;
    let mut r = RLimit { cur: 0, max: 0 };
    // SAFETY: `r` is a live out-param of the correct layout.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut r) } == 0 {
        return Some(r.cur);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn readable_event_fires_on_data() {
        let mut p = Poller::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        p.add(b.as_raw_fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();
        // Nothing to read yet: a short wait times out empty.
        p.wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "no data, no event");
        a.write_all(b"x").unwrap();
        p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        p.remove(b.as_raw_fd()).unwrap();
    }

    #[test]
    fn writable_event_fires_immediately_on_empty_buffer() {
        let mut p = Poller::new().unwrap();
        let (a, _b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        p.add(a.as_raw_fd(), 3, Interest::WRITE).unwrap();
        let mut events = Vec::new();
        p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.writable));
    }

    #[test]
    fn modify_switches_interest() {
        let mut p = Poller::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        p.add(b.as_raw_fd(), 1, Interest::READ).unwrap();
        a.write_all(b"x").unwrap();
        let mut events = Vec::new();
        p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.readable));
        // Drop read interest: the pending byte no longer wakes us.
        p.modify(b.as_raw_fd(), 1, Interest::WRITE).unwrap();
        p.wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(
            events.iter().all(|e| !e.readable || e.token != 1),
            "read interest dropped but still reported readable"
        );
    }

    #[test]
    fn eof_reports_readable() {
        let mut p = Poller::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        p.add(b.as_raw_fd(), 9, Interest::READ).unwrap();
        drop(a); // peer closes: a read would return Ok(0)
        let mut events = Vec::new();
        p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        let ev = events
            .iter()
            .find(|e| e.token == 9)
            .expect("hangup must surface");
        assert!(ev.readable, "EOF must be reported as readable");
    }

    #[test]
    fn waker_wakes_and_drains() {
        let mut p = Poller::new().unwrap();
        let w = Waker::new().unwrap();
        p.add(w.fd(), 0, Interest::READ).unwrap();
        let h = w.handle().unwrap();
        let t = std::thread::spawn(move || h.wake());
        let mut events = Vec::new();
        p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 0 && e.readable));
        t.join().unwrap();
        w.drain();
        // Drained: the next wait times out quietly.
        p.wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn many_registrations_round_trip() {
        let mut p = Poller::new().unwrap();
        let pairs: Vec<_> = (0..64).map(|_| UnixStream::pair().unwrap()).collect();
        for (i, (_, b)) in pairs.iter().enumerate() {
            b.set_nonblocking(true).unwrap();
            p.add(b.as_raw_fd(), 100 + i as u64, Interest::READ)
                .unwrap();
        }
        // Write on a subset; exactly that subset reports readable.
        let ready: Vec<usize> = vec![3, 17, 42];
        for &i in &ready {
            (&pairs[i].0).write_all(b"y").unwrap();
        }
        let mut events = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while seen.len() < ready.len() && std::time::Instant::now() < deadline {
            p.wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            for e in &events {
                if e.readable {
                    seen.insert((e.token - 100) as usize);
                }
            }
        }
        let want: std::collections::HashSet<usize> = ready.into_iter().collect();
        assert_eq!(seen, want);
        // Consume and verify level-triggered persistence until drained.
        for &i in want.iter() {
            let mut buf = [0u8; 8];
            let n = (&pairs[i].1).read(&mut buf).unwrap();
            assert_eq!(n, 1);
        }
        p.wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "drained fds must not re-report");
    }

    #[test]
    fn fd_limit_is_readable() {
        let lim = fd_soft_limit();
        assert!(lim.is_some(), "unix must expose RLIMIT_NOFILE");
        assert!(lim.unwrap() >= 64, "implausibly low fd limit");
    }
}
