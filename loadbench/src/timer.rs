//! A one-shot `timerfd`: wakes an epoll wait at a nanosecond-resolution
//! due time, so the open-loop generator can sleep until its next request
//! falls due instead of spinning (epoll's own timeout counts whole
//! milliseconds).

use std::fs::File;
use std::io::{self, Read};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Itimerspec {
    it_interval: Timespec,
    it_value: Timespec,
}

extern "C" {
    fn timerfd_create(clockid: i32, flags: i32) -> i32;
    fn timerfd_settime(fd: i32, flags: i32, new: *const Itimerspec, old: *mut Itimerspec) -> i32;
}

const CLOCK_MONOTONIC: i32 = 1;
const TFD_NONBLOCK: i32 = 0o4000;
const TFD_CLOEXEC: i32 = 0o2_000_000;

/// A non-blocking one-shot monotonic timer; readable once it fires.
pub struct Timer {
    fd: File,
}

impl Timer {
    /// Creates a disarmed timer.
    pub fn new() -> io::Result<Timer> {
        // SAFETY: plain syscall with constant arguments; it returns a new
        // descriptor or -1 and touches no memory of ours.
        let fd = unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned by timerfd_create, is valid, and
        // nothing else owns it; the File closes it exactly once.
        Ok(Timer {
            fd: unsafe { File::from_raw_fd(fd) },
        })
    }

    /// Arms the timer to fire `after` from now (at least 1 ns: a zero
    /// value would disarm it).
    pub fn arm(&self, after: Duration) -> io::Result<()> {
        let ns = after.as_nanos().max(1);
        let spec = Itimerspec {
            it_interval: Timespec {
                tv_sec: 0,
                tv_nsec: 0,
            },
            it_value: Timespec {
                tv_sec: (ns / 1_000_000_000) as i64,
                tv_nsec: (ns % 1_000_000_000) as i64,
            },
        };
        // SAFETY: the descriptor is a live timerfd owned by `self.fd`;
        // `spec` is a valid itimerspec for the duration of the call and
        // the old-value pointer may be null.
        let rc = unsafe { timerfd_settime(self.fd.as_raw_fd(), 0, &spec, std::ptr::null_mut()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Clears a fired expiry so the descriptor stops reading ready.
    pub fn clear(&mut self) {
        let mut expirations = [0u8; 8];
        let _ = self.fd.read(&mut expirations);
    }
}

impl AsRawFd for Timer {
    fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }
}
