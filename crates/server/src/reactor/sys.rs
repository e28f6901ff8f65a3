//! Raw `epoll(7)` syscalls behind a tiny `Poller`.
//!
//! Same discipline as the `hoplite_core::store` mmap shim: we stay a
//! zero-dependency crate by declaring the handful of `extern "C"`
//! prototypes ourselves instead of pulling in `libc`/`mio`. The
//! reactor is Linux-only; elsewhere `Server::bind` reports
//! `ErrorKind::Unsupported` and this module is not compiled.
//!
//! The poller is used **level-triggered**: an fd with unread bytes
//! (or writable space) is re-reported every wait, so the reactor never
//! needs to track "maybe more data" state across ticks — missing an
//! event is impossible, at the cost of re-reporting, which the drain
//! loops absorb.

use std::io;
use std::os::raw::{c_int, c_void};
use std::os::unix::io::RawFd;
use std::time::Duration;

/// One readiness report.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
}

// epoll_event is packed on x86-64 (and only there) in the kernel
// ABI; getting this wrong corrupts the token of every event.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
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
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut c_void) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut c_void, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

/// The reactor's readiness queue: one epoll instance.
pub(crate) struct Poller {
    epfd: c_int,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        // SAFETY: a syscall that takes only a flag word.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest(read, write),
            data: token,
        };
        let p = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut EpollEvent as *mut c_void
        };
        // SAFETY: `p` is null (which `EPOLL_CTL_DEL` ignores) or points
        // at `ev`, a kernel-layout event that outlives the call.
        if unsafe { epoll_ctl(self.epfd, op, fd, p) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` with interest in read and/or write readiness;
    /// `token` comes back verbatim in every [`Event`] for it.
    pub fn add(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, read, write)
    }

    /// Replaces `fd`'s registered interest.
    pub fn modify(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, read, write)
    }

    /// Deregisters `fd`. Closing the fd also deregisters it, so this
    /// is only needed for fds that stay open.
    pub fn remove(&self, fd: RawFd) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, false, false);
    }

    /// Blocks up to `timeout` for readiness, replacing `events` with
    /// whatever arrived (possibly nothing).
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        events.clear();
        let mut raw = [EpollEvent { events: 0, data: 0 }; 256];
        let ms = timeout.as_millis().min(i32::MAX as u128) as c_int;
        let n = loop {
            // SAFETY: `raw` holds `raw.len()` kernel-layout events, and
            // the kernel writes at most `maxevents` of them.
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    raw.as_mut_ptr() as *mut c_void,
                    raw.len() as c_int,
                    ms,
                )
            };
            if n >= 0 {
                break n as usize;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        };
        for ev in &raw[..n] {
            // Copy out of the (possibly packed) struct first.
            let (bits, data) = (ev.events, ev.data);
            events.push(Event {
                token: data,
                // HUP/ERR surface as readable so the read path
                // observes EOF / the socket error directly.
                readable: bits & (EPOLLIN | EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0,
                writable: bits & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0,
            });
        }
        Ok(())
    }
}

fn interest(read: bool, write: bool) -> u32 {
    let mut bits = EPOLLRDHUP;
    if read {
        bits |= EPOLLIN;
    }
    if write {
        bits |= EPOLLOUT;
    }
    bits
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` was opened by `new`, is owned by this poller
        // alone, and is closed only here.
        unsafe {
            close(self.epfd);
        }
    }
}
