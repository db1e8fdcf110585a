//! Readiness pollers: epoll on Linux, `poll(2)` on other Unixes, and a
//! degraded timed scan elsewhere.
//!
//! All three backends present one level-triggered API: register a
//! socket under a `token` with a read/write [`Interest`], then
//! [`Poller::wait`] fills an [`Event`] list. The reactor never touches
//! platform types directly — it hands the poller a raw descriptor via
//! [`fd_of`] and consumes tokens back.
//!
//! The syscall surface is declared with `extern "C"` directly: std
//! already links the platform C library, so no external crate is
//! needed. Only the epoll backend is Linux-specific; the `poll(2)`
//! backend compiles on every Unix (including Linux, where the test
//! suite exercises it as the forced fallback).

use std::io;
use std::time::Duration;

/// What readiness a registration wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the socket is readable (or closed by the peer).
    pub readable: bool,
    /// Wake when the socket accepts more outbound bytes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-only interest.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Neither direction (keeps the registration alive for errors).
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness notification.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered under.
    pub token: usize,
    /// Socket has bytes (or EOF) to read.
    pub readable: bool,
    /// Socket can take more bytes.
    pub writable: bool,
    /// Peer hung up or the socket errored; the connection is dead.
    pub hangup: bool,
}

/// Raw descriptor handed to the poller.
#[cfg(unix)]
pub type SysFd = std::os::raw::c_int;
/// Raw descriptor handed to the poller (unused off-Unix).
#[cfg(not(unix))]
pub type SysFd = i64;

/// Extracts the pollable descriptor from a socket.
#[cfg(unix)]
pub fn fd_of<T: std::os::unix::io::AsRawFd>(t: &T) -> SysFd {
    t.as_raw_fd()
}

/// Extracts the pollable descriptor from a socket. The degraded
/// backend ignores it, so any stand-in value works.
#[cfg(not(unix))]
pub fn fd_of<T>(_t: &T) -> SysFd {
    0
}

#[cfg(target_os = "linux")]
mod epoll_backend {
    use super::{Event, Interest, SysFd};
    use std::io;
    use std::os::raw::c_int;
    use std::time::Duration;

    // The kernel packs epoll_event on x86-64 (and x32); other
    // architectures use natural C layout.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }
    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0o2000000;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    /// Level-triggered epoll instance.
    pub struct Epoll {
        epfd: c_int,
        scratch: Vec<EpollEvent>,
    }

    impl Epoll {
        pub fn new() -> io::Result<Epoll> {
            // SAFETY: epoll_create1 takes a flags integer and returns a
            // new descriptor or -1; no memory is exchanged.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll {
                epfd,
                scratch: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn mask(interest: Interest) -> u32 {
            let mut m = EPOLLRDHUP;
            if interest.readable {
                m |= EPOLLIN;
            }
            if interest.writable {
                m |= EPOLLOUT;
            }
            m
        }

        fn ctl(&self, op: c_int, fd: SysFd, token: usize, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: Self::mask(interest),
                data: token as u64,
            };
            // SAFETY: `ev` is a live, properly laid out epoll_event for
            // the duration of the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&mut self, fd: SysFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn reregister(
            &mut self,
            fd: SysFd,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&mut self, fd: SysFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::NONE)
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let timeout_ms: c_int = match timeout {
                None => -1,
                Some(d) => duration_to_ms(d),
            };
            let cap = self.scratch.len() as c_int;
            // SAFETY: `scratch` is a live buffer of `cap` epoll_events;
            // the kernel writes at most `cap` entries and returns how
            // many it filled.
            let n = unsafe { epoll_wait(self.epfd, self.scratch.as_mut_ptr(), cap, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in self.scratch.iter().take(n as usize) {
                let bits = ev.events;
                let data = ev.data;
                out.push(Event {
                    token: data as usize,
                    readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: epfd is a descriptor this struct owns exclusively;
            // closing it twice is impossible because drop runs once.
            unsafe {
                let _ = close(self.epfd);
            }
        }
    }

    fn duration_to_ms(d: Duration) -> c_int {
        if d.is_zero() {
            return 0;
        }
        // Round up so a 100µs deadline does not busy-spin at 0ms.
        let ms = d.as_millis().saturating_add(1);
        c_int::try_from(ms).unwrap_or(c_int::MAX)
    }
}

#[cfg(unix)]
mod poll_backend {
    use super::{Event, Interest, SysFd};
    use std::io;
    use std::os::raw::{c_int, c_short, c_ulong};
    use std::time::Duration;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;
    const POLLNVAL: c_short = 0x020;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// `poll(2)`-based fallback: keeps the registration table in user
    /// space and rebuilds the pollfd array per wait. O(n) per call —
    /// fine as a portability fallback, not the fast path.
    pub struct PollSet {
        entries: Vec<(SysFd, usize, Interest)>,
    }

    impl PollSet {
        pub fn new() -> PollSet {
            PollSet {
                entries: Vec::new(),
            }
        }

        pub fn register(&mut self, fd: SysFd, token: usize, interest: Interest) -> io::Result<()> {
            if self.entries.iter().any(|&(f, _, _)| f == fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            self.entries.push((fd, token, interest));
            Ok(())
        }

        pub fn reregister(
            &mut self,
            fd: SysFd,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            for e in &mut self.entries {
                if e.0 == fd {
                    e.1 = token;
                    e.2 = interest;
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub fn deregister(&mut self, fd: SysFd) -> io::Result<()> {
            let before = self.entries.len();
            self.entries.retain(|&(f, _, _)| f != fd);
            if self.entries.len() == before {
                return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
            }
            Ok(())
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let mut fds: Vec<PollFd> = self
                .entries
                .iter()
                .map(|&(fd, _, interest)| {
                    let mut events: c_short = 0;
                    if interest.readable {
                        events |= POLLIN;
                    }
                    if interest.writable {
                        events |= POLLOUT;
                    }
                    PollFd {
                        fd,
                        events,
                        revents: 0,
                    }
                })
                .collect();
            let timeout_ms: c_int = match timeout {
                None => -1,
                Some(d) if d.is_zero() => 0,
                Some(d) => c_int::try_from(d.as_millis().saturating_add(1)).unwrap_or(c_int::MAX),
            };
            // SAFETY: `fds` is a live array of len() pollfds for the
            // duration of the call; poll only writes `revents` within it.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for (pfd, &(_, token, _)) in fds.iter().zip(self.entries.iter()) {
                if pfd.revents == 0 {
                    continue;
                }
                out.push(Event {
                    token,
                    readable: pfd.revents & POLLIN != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    // POLLNVAL (fd invalid while registered) must close
                    // the connection too, or poll returns instantly on
                    // every wait and the loop busy-spins.
                    hangup: pfd.revents & (POLLERR | POLLHUP | POLLNVAL) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(not(unix))]
mod degraded_backend {
    use super::{Event, Interest, SysFd};
    use std::io;
    use std::time::Duration;

    /// Last-resort backend for platforms with neither epoll nor
    /// `poll(2)`: every registered token is reported ready for its
    /// interests after a short sleep, and the connection state
    /// machines absorb the resulting `WouldBlock`s. Correct but
    /// latency-bound at the scan interval.
    pub struct Scan {
        entries: Vec<(SysFd, usize, Interest)>,
    }

    impl Scan {
        pub fn new() -> Scan {
            Scan {
                entries: Vec::new(),
            }
        }
        pub fn register(&mut self, fd: SysFd, token: usize, interest: Interest) -> io::Result<()> {
            self.entries.push((fd, token, interest));
            Ok(())
        }
        pub fn reregister(
            &mut self,
            fd: SysFd,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            for e in &mut self.entries {
                if e.0 == fd && e.1 == token {
                    e.2 = interest;
                    return Ok(());
                }
            }
            self.entries.push((fd, token, interest));
            Ok(())
        }
        pub fn deregister(&mut self, fd: SysFd) -> io::Result<()> {
            self.entries.retain(|&(f, _, _)| f != fd);
            Ok(())
        }
        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let nap = timeout
                .unwrap_or(Duration::from_millis(2))
                .min(Duration::from_millis(2));
            std::thread::sleep(nap);
            for &(_, token, interest) in &self.entries {
                if interest.readable || interest.writable {
                    out.push(Event {
                        token,
                        readable: interest.readable,
                        writable: interest.writable,
                        hangup: false,
                    });
                }
            }
            Ok(())
        }
    }
}

/// A readiness poller over one of the platform backends.
pub enum Poller {
    /// Linux epoll (the production path).
    #[cfg(target_os = "linux")]
    Epoll(epoll_backend::Epoll),
    /// POSIX `poll(2)` fallback.
    #[cfg(unix)]
    Poll(poll_backend::PollSet),
    /// Timed-scan degraded mode (non-Unix).
    #[cfg(not(unix))]
    Degraded(degraded_backend::Scan),
}

impl Poller {
    /// Opens the best backend available on this platform.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            Ok(Poller::Epoll(epoll_backend::Epoll::new()?))
        }
        #[cfg(all(unix, not(target_os = "linux")))]
        {
            Ok(Poller::Poll(poll_backend::PollSet::new()))
        }
        #[cfg(not(unix))]
        {
            Ok(Poller::Degraded(degraded_backend::Scan::new()))
        }
    }

    /// Opens the portable fallback backend (`poll(2)` on Unix), used by
    /// tests to exercise the non-epoll path on any host.
    pub fn new_fallback() -> io::Result<Poller> {
        #[cfg(unix)]
        {
            Ok(Poller::Poll(poll_backend::PollSet::new()))
        }
        #[cfg(not(unix))]
        {
            Ok(Poller::Degraded(degraded_backend::Scan::new()))
        }
    }

    /// The active backend's name, for logs and stats.
    pub fn backend(&self) -> &'static str {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(_) => "epoll",
            #[cfg(unix)]
            Poller::Poll(_) => "poll",
            #[cfg(not(unix))]
            Poller::Degraded(_) => "degraded-scan",
        }
    }

    /// Adds a descriptor under `token`.
    pub fn register(&mut self, fd: SysFd, token: usize, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.register(fd, token, interest),
            #[cfg(unix)]
            Poller::Poll(p) => p.register(fd, token, interest),
            #[cfg(not(unix))]
            Poller::Degraded(p) => p.register(fd, token, interest),
        }
    }

    /// Changes a registration's interest set.
    pub fn reregister(&mut self, fd: SysFd, token: usize, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.reregister(fd, token, interest),
            #[cfg(unix)]
            Poller::Poll(p) => p.reregister(fd, token, interest),
            #[cfg(not(unix))]
            Poller::Degraded(p) => p.reregister(fd, token, interest),
        }
    }

    /// Removes a descriptor.
    pub fn deregister(&mut self, fd: SysFd) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.deregister(fd),
            #[cfg(unix)]
            Poller::Poll(p) => p.deregister(fd),
            #[cfg(not(unix))]
            Poller::Degraded(p) => p.deregister(fd),
        }
    }

    /// Blocks until readiness or `timeout`, appending events to `out`
    /// (which is cleared first). A spurious empty return is allowed.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.wait(out, timeout),
            #[cfg(unix)]
            Poller::Poll(p) => p.wait(out, timeout),
            #[cfg(not(unix))]
            Poller::Degraded(p) => p.wait(out, timeout),
        }
    }
}

/// The loop-wakeup handle: lets worker threads (and external shutdown)
/// interrupt a blocked [`Poller::wait`].
#[cfg(unix)]
pub struct Waker {
    tx: std::os::unix::net::UnixStream,
}

#[cfg(unix)]
impl Waker {
    /// Interrupts the poller. Never blocks: if the pipe is full a wake
    /// is already pending, which is all that matters.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.tx).write(&[1]);
    }
}

/// The readable end of the wakeup channel, registered in the poller.
#[cfg(unix)]
pub struct WakeReceiver {
    rx: std::os::unix::net::UnixStream,
}

#[cfg(unix)]
impl WakeReceiver {
    /// Descriptor to register under the reactor's wake token.
    pub fn fd(&self) -> SysFd {
        fd_of(&self.rx)
    }

    /// Discards all pending wake bytes.
    pub fn drain(&self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        loop {
            match (&self.rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(_) => break,
            }
        }
    }
}

/// Creates the wakeup channel.
#[cfg(unix)]
pub fn wake_pair() -> io::Result<(Waker, WakeReceiver)> {
    let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, WakeReceiver { rx }))
}

/// No-op waker for the degraded backend: its short scan interval
/// bounds wake latency instead.
#[cfg(not(unix))]
pub struct Waker;
#[cfg(not(unix))]
impl Waker {
    /// No-op; the degraded poller wakes on its own scan interval.
    pub fn wake(&self) {}
}
/// Dummy wake receiver (never registered) for the degraded backend.
#[cfg(not(unix))]
pub struct WakeReceiver;
#[cfg(not(unix))]
impl WakeReceiver {
    /// Stand-in descriptor; the degraded backend ignores it.
    pub fn fd(&self) -> SysFd {
        0
    }
    /// Nothing to drain.
    pub fn drain(&self) {}
}
/// Creates the (no-op) wakeup channel on non-Unix platforms.
#[cfg(not(unix))]
pub fn wake_pair() -> io::Result<(Waker, WakeReceiver)> {
    Ok((Waker, WakeReceiver))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn roundtrip_on(mut poller: Poller) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller
            .register(fd_of(&listener), 7, Interest::READ)
            .unwrap();

        let mut events = Vec::new();
        // Nothing pending: a zero-timeout wait returns no listener event.
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 7) || !events[0].readable);

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        // The pending connection must surface as readability on token 7.
        let mut saw = false;
        for _ in 0..100 {
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                saw = true;
                break;
            }
        }
        assert!(saw, "listener readiness never reported");

        let (mut server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        poller
            .register(
                fd_of(&server_side),
                9,
                Interest {
                    readable: true,
                    writable: true,
                },
            )
            .unwrap();
        client.write_all(b"ping").unwrap();
        let mut saw_read = false;
        for _ in 0..100 {
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            if events.iter().any(|e| e.token == 9 && e.readable) {
                saw_read = true;
                break;
            }
        }
        assert!(saw_read, "stream readability never reported");
        let mut buf = [0u8; 4];
        server_side.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");

        poller.deregister(fd_of(&server_side)).unwrap();
        poller.deregister(fd_of(&listener)).unwrap();
    }

    #[test]
    fn default_backend_reports_readiness() {
        roundtrip_on(Poller::new().unwrap());
    }

    #[test]
    fn fallback_backend_reports_readiness() {
        let p = Poller::new_fallback().unwrap();
        #[cfg(unix)]
        assert_eq!(p.backend(), "poll");
        roundtrip_on(p);
    }

    #[cfg(unix)]
    #[test]
    fn waker_interrupts_wait() {
        let mut poller = Poller::new().unwrap();
        let (waker, rx) = wake_pair().unwrap();
        poller.register(rx.fd(), 1, Interest::READ).unwrap();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let mut events = Vec::new();
        let start = std::time::Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        rx.drain();
        handle.join().unwrap();
    }
}
