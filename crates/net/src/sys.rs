//! Raw Linux syscall bindings for epoll and eventfd.
//!
//! The workspace policy is "no external dependencies" (crates.io is
//! unreachable from the build environment), so instead of the `libc` crate
//! this module declares the handful of C functions the reactor needs
//! directly — they resolve against the libc that `std` already links.  This,
//! `rf-runtime`'s worker-affinity module and the vendored `rand_chacha`'s
//! AVX2 block module are the only modules in the workspace that contain
//! `unsafe`; everything above it works with the safe [`Epoll`] and
//! [`EventFd`] wrappers.
//!
//! Linux-only by design (the reactor is the Linux deployment path; the
//! blocking fallback server never left `rf-server`'s git history).

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::FromRawFd;
use std::os::raw::{c_int, c_uint, c_void};

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_void, len: u32) -> c_int;
    fn bind(fd: c_int, addr: *const c_void, len: u32) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
}

/// `EPOLL_CTL_ADD`.
const EPOLL_CTL_ADD: c_int = 1;
/// `EPOLL_CTL_DEL`.
const EPOLL_CTL_DEL: c_int = 2;
/// `EPOLL_CTL_MOD`.
const EPOLL_CTL_MOD: c_int = 3;

/// Readability (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writability (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`); always reported, never requested.
pub const EPOLLERR: u32 = 0x008;
/// Hang-up (`EPOLLHUP`); always reported, never requested.
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its writing half (`EPOLLRDHUP`).
pub const EPOLLRDHUP: u32 = 0x2000;

/// `EPOLL_CLOEXEC` / `EFD_CLOEXEC` (== `O_CLOEXEC`).
const CLOEXEC: c_int = 0o2000000;
/// `EFD_NONBLOCK` (== `O_NONBLOCK`).
const EFD_NONBLOCK: c_int = 0o4000;

/// The kernel's `struct epoll_event`.  On x86-64 the kernel ABI packs it to
/// 12 bytes; other architectures use natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy)]
pub struct EpollEvent {
    /// Ready/interest bitmask (`EPOLLIN` | `EPOLLOUT` | …).
    pub events: u32,
    /// Caller-chosen token identifying the registration.
    pub data: u64,
}

impl EpollEvent {
    /// An event with the given interest mask and token.
    #[must_use]
    pub fn new(events: u32, data: u64) -> Self {
        EpollEvent { events, data }
    }
}

/// Converts a `-1`-on-error C return into an `io::Result`.
fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance; the fd is closed on drop.
#[derive(Debug)]
pub struct Epoll {
    fd: c_int,
}

impl Epoll {
    /// Creates an epoll instance (`EPOLL_CLOEXEC`).
    ///
    /// # Errors
    /// The `epoll_create1` errno.
    pub fn new() -> io::Result<Self> {
        // SAFETY: no pointers involved; the return value is checked.
        let fd = cvt(unsafe { epoll_create1(CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    /// Registers `fd` with the given interest mask and token.
    ///
    /// # Errors
    /// The `epoll_ctl` errno (e.g. `EEXIST` for a duplicate registration).
    pub fn add(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Replaces the interest mask for an already-registered `fd`.
    ///
    /// # Errors
    /// The `epoll_ctl` errno (e.g. `ENOENT` for an unknown fd).
    pub fn modify(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Removes `fd` from the interest list.
    ///
    /// # Errors
    /// The `epoll_ctl` errno.
    pub fn delete(&self, fd: i32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn ctl(&self, op: c_int, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent::new(events, token);
        // SAFETY: `event` is a valid `EpollEvent` living for the duration of
        // the call; for `EPOLL_CTL_DEL` the kernel ignores the pointer (and
        // we still pass a valid one for pre-2.6.9 semantics).
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut event) })?;
        Ok(())
    }

    /// Waits for events, retrying on `EINTR`.  `timeout_ms < 0` blocks
    /// indefinitely.  Returns the number of events written into `events`.
    ///
    /// # Errors
    /// The `epoll_wait` errno (other than `EINTR`).
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let capacity = c_int::try_from(events.len()).unwrap_or(c_int::MAX);
            // SAFETY: `events` is a valid, writable buffer of `capacity`
            // `EpollEvent`s; the kernel writes at most that many.
            let ret = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), capacity, timeout_ms) };
            match cvt(ret) {
                Ok(count) => return Ok(count as usize),
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err) => return Err(err),
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is an fd this struct owns; double-close is
        // impossible because drop runs once.
        let _ = unsafe { close(self.fd) };
    }
}

/// An owned eventfd used as a cross-thread wakeup signal; closed on drop.
#[derive(Debug)]
pub struct EventFd {
    fd: c_int,
}

impl EventFd {
    /// Creates a nonblocking, close-on-exec eventfd with counter 0.
    ///
    /// # Errors
    /// The `eventfd` errno.
    pub fn new() -> io::Result<Self> {
        // SAFETY: no pointers involved; the return value is checked.
        let fd = cvt(unsafe { eventfd(0, CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    /// The raw fd, for epoll registration.
    #[must_use]
    pub fn as_raw_fd(&self) -> i32 {
        self.fd
    }

    /// Adds 1 to the eventfd counter, making it readable.  Safe to call from
    /// any thread; a full counter (`EAGAIN`) already guarantees a pending
    /// wakeup, so that error is ignored.
    pub fn signal(&self) {
        let value: u64 = 1;
        // SAFETY: `value` lives for the duration of the call and the length
        // matches its size.
        let _ = unsafe {
            write(
                self.fd,
                std::ptr::addr_of!(value).cast::<c_void>(),
                std::mem::size_of::<u64>(),
            )
        };
    }

    /// Resets the counter to 0 (consumes all pending wakeups).
    pub fn drain(&self) {
        let mut value: u64 = 0;
        // SAFETY: `value` is a valid writable 8-byte buffer.  The fd is
        // nonblocking, so the read returns immediately either way.
        let _ = unsafe {
            read(
                self.fd,
                std::ptr::addr_of_mut!(value).cast::<c_void>(),
                std::mem::size_of::<u64>(),
            )
        };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is an fd this struct owns.
        let _ = unsafe { close(self.fd) };
    }
}

/// `AF_INET`.
const AF_INET: c_int = 2;
/// `AF_INET6`.
const AF_INET6: c_int = 10;
/// `SOCK_STREAM`.
const SOCK_STREAM: c_int = 1;
/// `SOCK_CLOEXEC` (== `O_CLOEXEC` on Linux).
const SOCK_CLOEXEC: c_int = CLOEXEC;
/// `SOL_SOCKET`.
const SOL_SOCKET: c_int = 1;
/// `SO_REUSEADDR`.
const SO_REUSEADDR: c_int = 2;
/// `SO_REUSEPORT`.
const SO_REUSEPORT: c_int = 15;
/// Accept backlog for reuseport listeners (same as std's default).
const LISTEN_BACKLOG: c_int = 128;

/// The kernel's `struct sockaddr_in` (IPv4).
#[repr(C)]
struct SockAddrIn {
    sin_family: u16,
    /// Big-endian port.
    sin_port: u16,
    /// Big-endian address.
    sin_addr: u32,
    sin_zero: [u8; 8],
}

/// The kernel's `struct sockaddr_in6` (IPv6).
#[repr(C)]
struct SockAddrIn6 {
    sin6_family: u16,
    /// Big-endian port.
    sin6_port: u16,
    sin6_flowinfo: u32,
    sin6_addr: [u8; 16],
    sin6_scope_id: u32,
}

/// An fd that is closed on drop unless released — keeps the socket from
/// leaking on any early-return path below.
struct OwnedFd(c_int);

impl OwnedFd {
    fn release(self) -> c_int {
        let fd = self.0;
        std::mem::forget(self);
        fd
    }
}

impl Drop for OwnedFd {
    fn drop(&mut self) {
        // SAFETY: `self.0` is an fd this struct owns.
        let _ = unsafe { close(self.0) };
    }
}

/// Binds a `TcpListener` with `SO_REUSEPORT` (and `SO_REUSEADDR`) set
/// before `bind`, so several listeners can share one address and the kernel
/// balances accepts across them.  `std::net::TcpListener::bind` offers no
/// pre-bind hook, hence the raw socket path; the returned listener is an
/// ordinary `std` listener and is nonblocking-agnostic (the reactor sets
/// nonblocking itself).
///
/// # Errors
/// Any errno from `socket`/`setsockopt`/`bind`/`listen`.
pub fn listen_reuseport(addr: SocketAddr) -> io::Result<TcpListener> {
    let domain = match addr {
        SocketAddr::V4(_) => AF_INET,
        SocketAddr::V6(_) => AF_INET6,
    };
    // SAFETY: no pointers involved; the return value is checked.
    let fd = OwnedFd(cvt(unsafe {
        socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0)
    })?);
    let one: c_int = 1;
    for option in [SO_REUSEADDR, SO_REUSEPORT] {
        // SAFETY: `one` lives for the duration of the call and the length
        // matches its size.
        cvt(unsafe {
            setsockopt(
                fd.0,
                SOL_SOCKET,
                option,
                std::ptr::addr_of!(one).cast::<c_void>(),
                std::mem::size_of::<c_int>() as u32,
            )
        })?;
    }
    match addr {
        SocketAddr::V4(v4) => {
            let raw = SockAddrIn {
                sin_family: AF_INET as u16,
                sin_port: v4.port().to_be(),
                sin_addr: u32::from(*v4.ip()).to_be(),
                sin_zero: [0; 8],
            };
            // SAFETY: `raw` is a valid `sockaddr_in` living for the call
            // and the length matches its size.
            cvt(unsafe {
                bind(
                    fd.0,
                    std::ptr::addr_of!(raw).cast::<c_void>(),
                    std::mem::size_of::<SockAddrIn>() as u32,
                )
            })?;
        }
        SocketAddr::V6(v6) => {
            let raw = SockAddrIn6 {
                sin6_family: AF_INET6 as u16,
                sin6_port: v6.port().to_be(),
                sin6_flowinfo: v6.flowinfo(),
                sin6_addr: v6.ip().octets(),
                sin6_scope_id: v6.scope_id(),
            };
            // SAFETY: `raw` is a valid `sockaddr_in6` living for the call
            // and the length matches its size.
            cvt(unsafe {
                bind(
                    fd.0,
                    std::ptr::addr_of!(raw).cast::<c_void>(),
                    std::mem::size_of::<SockAddrIn6>() as u32,
                )
            })?;
        }
    }
    // SAFETY: no pointers involved; the return value is checked.
    cvt(unsafe { listen(fd.0, LISTEN_BACKLOG) })?;
    // SAFETY: `fd` is a freshly created, bound, listening TCP socket whose
    // sole ownership transfers to the `TcpListener`.
    Ok(unsafe { TcpListener::from_raw_fd(fd.release()) })
}
