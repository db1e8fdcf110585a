//! The readiness poller: level-triggered Linux epoll.
//!
//! Register a socket under a `token` with a read/write [`Interest`],
//! then [`Poller::wait`] fills an [`Event`] list. The reactor hands the
//! poller raw descriptors ([`AsRawFd`]) and consumes tokens back.
//!
//! The syscall surface is declared with `extern "C"` directly: std
//! already links the platform C library, so no external crate is
//! needed. Linux is the serving tier's platform; any other target
//! fails to build here rather than at link time.

#[cfg(not(target_os = "linux"))]
compile_error!("sciml-serve's reactor polls with epoll, which only Linux provides");

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::c_int;
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
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
}

/// A level-triggered epoll instance.
pub struct Poller {
    epfd: OwnedFd,
    scratch: Vec<EpollEvent>,
}

impl Poller {
    /// Opens a new epoll instance.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes a flags integer and returns a new
        // descriptor or -1; no memory is exchanged. A non-negative
        // return is an open descriptor nothing else owns, so `OwnedFd`
        // may take it (and close it on drop).
        let epfd = unsafe {
            let fd = epoll_create1(EPOLL_CLOEXEC);
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            OwnedFd::from_raw_fd(fd)
        };
        Ok(Poller {
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

    fn ctl(&self, op: c_int, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: Self::mask(interest),
            data: token as u64,
        };
        // SAFETY: `ev` is a live, properly laid out epoll_event for
        // the duration of the call; the kernel copies it.
        let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Adds a descriptor under `token`.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes a registration's interest set.
    pub fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Removes a descriptor.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::NONE)
    }

    /// Blocks until readiness or `timeout`, appending events to `out`
    /// (which is cleared first). A spurious empty return is allowed.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(d) => duration_to_ms(d),
        };
        let cap = self.scratch.len() as c_int;
        // SAFETY: `scratch` is a live buffer of `cap` epoll_events;
        // the kernel writes at most `cap` entries and returns how
        // many it filled.
        let n = unsafe {
            epoll_wait(
                self.epfd.as_raw_fd(),
                self.scratch.as_mut_ptr(),
                cap,
                timeout_ms,
            )
        };
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

fn duration_to_ms(d: Duration) -> c_int {
    if d.is_zero() {
        return 0;
    }
    // Round up so a 100µs deadline does not busy-spin at 0ms.
    let ms = d.as_millis().saturating_add(1);
    c_int::try_from(ms).unwrap_or(c_int::MAX)
}

/// The loop-wakeup handle: lets worker threads (and external shutdown)
/// interrupt a blocked [`Poller::wait`].
pub struct Waker {
    tx: std::os::unix::net::UnixStream,
}

impl Waker {
    /// Interrupts the poller. Never blocks: if the pipe is full a wake
    /// is already pending, which is all that matters.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.tx).write(&[1]);
    }
}

/// The readable end of the wakeup channel, registered in the poller.
pub struct WakeReceiver {
    rx: std::os::unix::net::UnixStream,
}

impl WakeReceiver {
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

/// The descriptor to register under the reactor's wake token.
impl AsRawFd for WakeReceiver {
    fn as_raw_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }
}

/// Creates the wakeup channel.
pub fn wake_pair() -> io::Result<(Waker, WakeReceiver)> {
    let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, WakeReceiver { rx }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn poller_reports_readiness() {
        let mut poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller
            .register(listener.as_raw_fd(), 7, Interest::READ)
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
                server_side.as_raw_fd(),
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

        poller.deregister(server_side.as_raw_fd()).unwrap();
        poller.deregister(listener.as_raw_fd()).unwrap();
    }

    #[test]
    fn waker_interrupts_wait() {
        let mut poller = Poller::new().unwrap();
        let (waker, rx) = wake_pair().unwrap();
        poller.register(rx.as_raw_fd(), 1, Interest::READ).unwrap();
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
