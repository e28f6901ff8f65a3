//! Raw readiness syscalls behind a tiny portable `Poller`.
//!
//! Same discipline as the `hoplite_core::store` mmap shim: we stay a
//! zero-dependency crate by declaring the handful of `extern "C"`
//! prototypes ourselves instead of pulling in `libc`/`mio`. Linux gets
//! `epoll(7)`; macOS and the BSDs get `kqueue(2)`; anything else gets
//! a stub that reports readiness polling as unsupported (the server
//! then refuses to bind).
//!
//! Both backends are used **level-triggered**: an fd with unread bytes
//! (or writable space) is re-reported every wait, so the reactor never
//! needs to track "maybe more data" state across ticks — missing an
//! event is impossible, at the cost of re-reporting, which the drain
//! loops absorb.

#![allow(dead_code)]

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// One readiness report.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
}

/// Portable readiness queue: epoll on Linux, kqueue on BSD/macOS.
pub(crate) struct Poller {
    imp: imp::Poller,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            imp: imp::Poller::new()?,
        })
    }

    /// Registers `fd` with interest in read and/or write readiness;
    /// `token` comes back verbatim in every [`Event`] for it.
    pub fn add(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.imp.add(fd, token, read, write)
    }

    /// Replaces `fd`'s registered interest.
    pub fn modify(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.imp.modify(fd, token, read, write)
    }

    /// Deregisters `fd`. Closing the fd also deregisters it in both
    /// backends, so this is only needed for fds that stay open.
    pub fn remove(&self, fd: RawFd) {
        self.imp.remove(fd)
    }

    /// Blocks up to `timeout` for readiness, replacing `events` with
    /// whatever arrived (possibly nothing).
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
        self.imp.wait(events, timeout)
    }
}

#[cfg(any(target_os = "linux", target_os = "android"))]
mod imp {
    use super::Event;
    use std::io;
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::RawFd;
    use std::time::Duration;

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

    pub(crate) struct Poller {
        epfd: c_int,
    }

    // The epoll fd is only touched from the reactor thread, but the
    // handle itself is trivially sendable.
    unsafe impl Send for Poller {}

    impl Poller {
        pub fn new() -> io::Result<Poller> {
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
            if unsafe { epoll_ctl(self.epfd, op, fd, p) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn add(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, read, write)
        }

        pub fn modify(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, read, write)
        }

        pub fn remove(&self, fd: RawFd) {
            let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, false, false);
        }

        pub fn wait(&self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            events.clear();
            let mut raw = [EpollEvent { events: 0, data: 0 }; 256];
            let ms = timeout.as_millis().min(i32::MAX as u128) as c_int;
            let n = loop {
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
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(any(
    target_os = "macos",
    target_os = "ios",
    target_os = "freebsd",
    target_os = "netbsd",
    target_os = "openbsd",
    target_os = "dragonfly"
))]
mod imp {
    use super::Event;
    use std::io;
    use std::os::raw::{c_int, c_long, c_void};
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    const EVFILT_READ: i16 = -1;
    const EVFILT_WRITE: i16 = -2;
    const EV_ADD: u16 = 0x0001;
    const EV_DELETE: u16 = 0x0002;
    const EV_EOF: u16 = 0x8000;

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    // The NetBSD kevent layout differs (64-bit ident/data everywhere);
    // this matches the FreeBSD/macOS ABI, which covers our CI targets.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct KEvent {
        ident: usize,
        filter: i16,
        flags: u16,
        fflags: u32,
        data: isize,
        udata: *mut c_void,
    }

    extern "C" {
        fn kqueue() -> c_int;
        fn kevent(
            kq: c_int,
            changelist: *const KEvent,
            nchanges: c_int,
            eventlist: *mut KEvent,
            nevents: c_int,
            timeout: *const Timespec,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    pub(crate) struct Poller {
        kq: c_int,
    }

    unsafe impl Send for Poller {}

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let kq = unsafe { kqueue() };
            if kq < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { kq })
        }

        fn apply(&self, changes: &[KEvent], tolerate_enoent: bool) -> io::Result<()> {
            let r = unsafe {
                kevent(
                    self.kq,
                    changes.as_ptr(),
                    changes.len() as c_int,
                    std::ptr::null_mut(),
                    0,
                    std::ptr::null(),
                )
            };
            if r < 0 {
                let e = io::Error::last_os_error();
                // Deleting a filter that was never added (interest
                // toggling) is fine.
                if !(tolerate_enoent && e.raw_os_error() == Some(2)) {
                    return Err(e);
                }
            }
            Ok(())
        }

        fn set(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            let mk = |filter: i16, on: bool| KEvent {
                ident: fd as usize,
                filter,
                flags: if on { EV_ADD } else { EV_DELETE },
                fflags: 0,
                data: 0,
                udata: token as *mut c_void,
            };
            self.apply(&[mk(EVFILT_READ, read)], true)?;
            self.apply(&[mk(EVFILT_WRITE, write)], true)
        }

        pub fn add(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.set(fd, token, read, write)
        }

        pub fn modify(&self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.set(fd, token, read, write)
        }

        pub fn remove(&self, fd: RawFd) {
            let _ = self.set(fd, 0, false, false);
        }

        pub fn wait(&self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            events.clear();
            let mut raw = [KEvent {
                ident: 0,
                filter: 0,
                flags: 0,
                fflags: 0,
                data: 0,
                udata: std::ptr::null_mut(),
            }; 256];
            let ts = Timespec {
                tv_sec: timeout.as_secs().min(c_long::MAX as u64) as c_long,
                tv_nsec: timeout.subsec_nanos() as c_long,
            };
            let n = loop {
                let n = unsafe {
                    kevent(
                        self.kq,
                        std::ptr::null(),
                        0,
                        raw.as_mut_ptr(),
                        raw.len() as c_int,
                        &ts,
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
                let eof = ev.flags & EV_EOF != 0;
                events.push(Event {
                    token: ev.udata as u64,
                    readable: ev.filter == EVFILT_READ || eof,
                    writable: ev.filter == EVFILT_WRITE,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.kq);
            }
        }
    }
}

#[cfg(not(any(
    target_os = "linux",
    target_os = "android",
    target_os = "macos",
    target_os = "ios",
    target_os = "freebsd",
    target_os = "netbsd",
    target_os = "openbsd",
    target_os = "dragonfly"
)))]
mod imp {
    use super::Event;
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    pub(crate) struct Poller;

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "serving needs a readiness backend (epoll or kqueue)",
            ))
        }
        pub fn add(&self, _: RawFd, _: u64, _: bool, _: bool) -> io::Result<()> {
            unreachable!("stub poller cannot be constructed")
        }
        pub fn modify(&self, _: RawFd, _: u64, _: bool, _: bool) -> io::Result<()> {
            unreachable!("stub poller cannot be constructed")
        }
        pub fn remove(&self, _: RawFd) {
            unreachable!("stub poller cannot be constructed")
        }
        pub fn wait(&self, _: &mut Vec<Event>, _: Duration) -> io::Result<()> {
            unreachable!("stub poller cannot be constructed")
        }
    }
}
