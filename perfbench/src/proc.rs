//! Child-process supervision: exact exit timing and peak resident memory
//! of a CLI run, per-phase timeouts, and servers that never outlive the
//! harness.
//!
//! Linux only: peak memory comes from `wait4`'s `ru_maxrss` for a CLI
//! run and from `/proc/<pid>/status` (`VmHWM`) for a live server.

use std::io::{self, BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

mod sys {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long` counters; `ru_maxrss` (KiB) is the first counter.
    #[repr(C)]
    pub struct Rusage(pub [i64; 18]);

    /// `siginfo_t` is 128 bytes; only its storage is needed here.
    #[repr(C)]
    pub struct SigInfo(pub [u64; 16]);

    pub const P_PID: i32 = 1;
    pub const WEXITED: i32 = 4;
    pub const WNOWAIT: i32 = 0x0100_0000;
    pub const SIGKILL: i32 = 9;

    extern "C" {
        pub fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
        pub fn waitid(idtype: i32, id: u32, infop: *mut SigInfo, options: i32) -> i32;
        pub fn kill(pid: i32, sig: i32) -> i32;
    }
}

fn retry_eintr(mut call: impl FnMut() -> i32) -> io::Result<i32> {
    loop {
        let rc = call();
        if rc >= 0 {
            return Ok(rc);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Block until `pid` has exited, leaving it a zombie: its pid cannot be
/// reused until [`reap`], so a watchdog may still signal it safely.
fn wait_exited(pid: u32) -> io::Result<()> {
    let mut info = sys::SigInfo([0; 16]);
    // SAFETY: `info` is a live, writable 128-byte buffer, the size of
    // `siginfo_t`; the call writes nothing else.
    retry_eintr(|| unsafe { sys::waitid(sys::P_PID, pid, &mut info, sys::WEXITED | sys::WNOWAIT) })
        .map(drop)
}

/// Reap `pid`: its exit code (`None` when a signal ended it) and peak
/// resident memory in KiB.
fn reap(pid: u32) -> io::Result<(Option<i32>, u64)> {
    let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = sys::Rusage([0; 18]);
    // SAFETY: `status` and `usage` are live, writable and sized as
    // `wait4` expects (`int`, `struct rusage`).
    retry_eintr(|| unsafe { sys::wait4(pid, &mut status, 0, &mut usage) })?;
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok((code, u64::try_from(usage.0[4]).unwrap_or(0)))
}

fn kill(pid: u32) {
    if let Ok(pid) = i32::try_from(pid) {
        // SAFETY: plain syscall on a pid this process spawned and has not
        // reaped yet, so it cannot name another process.
        unsafe {
            sys::kill(pid, sys::SIGKILL);
        }
    }
}

/// Kills a child that outlives its phase. Dropping it disarms it and
/// joins its thread; it must be dropped before the child is reaped.
pub struct Watchdog {
    disarm: Option<Sender<()>>,
    thread: Option<JoinHandle<bool>>,
}

impl Watchdog {
    /// Kill `pid` unless disarmed within `timeout`.
    pub fn arm(pid: u32, timeout: Duration) -> Watchdog {
        let (tx, rx) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || match rx.recv_timeout(timeout) {
            Err(RecvTimeoutError::Timeout) => {
                kill(pid);
                true
            }
            _ => false,
        });
        Watchdog {
            disarm: Some(tx),
            thread: Some(thread),
        }
    }

    /// Disarm and report whether it had fired.
    pub fn disarm(mut self) -> bool {
        self.stop()
    }

    fn stop(&mut self) -> bool {
        if let Some(tx) = self.disarm.take() {
            let _ = tx.send(());
        }
        self.thread
            .take()
            .is_some_and(|t| t.join().unwrap_or(false))
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop();
    }
}

/// How a supervised CLI run ended.
#[derive(Debug, Clone)]
pub struct Finished {
    /// Spawn to exit.
    pub wall: Duration,
    /// Exit code; `None` when a signal ended the process.
    pub code: Option<i32>,
    /// Peak resident memory (`ru_maxrss`), KiB.
    pub max_rss_kb: u64,
    /// `true` when the watchdog killed it.
    pub timed_out: bool,
}

impl Finished {
    /// `Ok` for a clean exit within the time limit.
    pub fn check(&self, what: &str) -> Result<(), String> {
        match (self.timed_out, self.code) {
            (true, _) => Err(format!("{what}: timed out after {:?}", self.wall)),
            (false, Some(0)) => Ok(()),
            (false, Some(code)) => Err(format!("{what}: exit code {code}")),
            (false, None) => Err(format!("{what}: killed by a signal")),
        }
    }
}

/// Kills and reaps a spawned child unless it was reaped normally.
struct Reaper {
    pid: u32,
    armed: bool,
}

impl Drop for Reaper {
    fn drop(&mut self) {
        if self.armed {
            kill(self.pid);
            let _ = reap(self.pid);
        }
    }
}

/// Run `cmd` to completion with stdout piped, handing each stdout line to
/// `on_line`. The watchdog kills the run after `timeout`. `cmd` keeps
/// whatever stdin/stderr it was given.
///
/// # Errors
///
/// Spawn and pipe errors.
pub fn run_lines(
    cmd: &mut Command,
    timeout: Duration,
    mut on_line: impl FnMut(&str),
) -> io::Result<Finished> {
    let start = Instant::now();
    let mut child = cmd.stdout(Stdio::piped()).spawn()?;
    let mut reaper = Reaper {
        pid: child.id(),
        armed: true,
    };
    let watchdog = Watchdog::arm(child.id(), timeout);
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| io::Error::other("stdout not piped"))?;
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        on_line(&line);
    }
    wait_exited(reaper.pid)?;
    let wall = start.elapsed();
    let timed_out = watchdog.disarm();
    let (code, max_rss_kb) = reap(reaper.pid)?;
    reaper.armed = false;
    Ok(Finished {
        wall,
        code,
        max_rss_kb,
        timed_out,
    })
}

/// Spawn `cmd` with stderr piped and time how long it takes to print a
/// stderr line containing `needle`; then kill and reap it. `None` when
/// the process ended or timed out first.
///
/// # Errors
///
/// Spawn and pipe errors.
pub fn time_to_stderr_line(
    cmd: &mut Command,
    needle: &str,
    timeout: Duration,
) -> io::Result<Option<Duration>> {
    let start = Instant::now();
    let mut child = cmd.stdout(Stdio::null()).stderr(Stdio::piped()).spawn()?;
    let _reaper = Reaper {
        pid: child.id(),
        armed: true,
    };
    let _watchdog = Watchdog::arm(child.id(), timeout);
    let stderr = child
        .stderr
        .take()
        .ok_or_else(|| io::Error::other("stderr not piped"))?;
    let mut reader = BufReader::new(stderr);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        if line.contains(needle) {
            return Ok(Some(start.elapsed()));
        }
    }
}

/// A running `mbpta serve` child. Dropping it kills and reaps the
/// process, so no server outlives a failed phase.
pub struct Server {
    child: Child,
    /// The address from its readiness line.
    pub addr: SocketAddr,
}

impl Server {
    /// Spawn `cmd` (an `mbpta serve` invocation) and wait for its
    /// `listening on <addr>` line; `ready` is the instant it arrived.
    ///
    /// # Errors
    ///
    /// Spawn errors, or a server that exits or stays silent past
    /// `timeout` without announcing its address.
    pub fn spawn(cmd: &mut Command, timeout: Duration) -> io::Result<(Server, Instant)> {
        let mut child = cmd.stdout(Stdio::piped()).spawn()?;
        let watchdog = Watchdog::arm(child.id(), timeout);
        let mut line = String::new();
        let read = match child.stdout.take() {
            Some(stdout) => {
                // One line only: the server prints nothing else to stdout.
                let mut reader = BufReader::new(stdout);
                reader.read_line(&mut line)
            }
            None => Err(io::Error::other("stdout not piped")),
        };
        let ready = Instant::now();
        let fired = watchdog.disarm();
        let mut server = Server {
            child,
            addr: "127.0.0.1:0".parse().map_err(io::Error::other)?,
        };
        read?;
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        match addr {
            Some(addr) if !fired => {
                server.addr = addr;
                Ok((server, ready))
            }
            _ => Err(io::Error::other(format!(
                "server did not announce its address: `{}`",
                line.trim()
            ))),
        }
    }

    /// The child's pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident memory so far (`VmHWM`), KiB.
    pub fn peak_rss_kb(&self) -> Option<u64> {
        let mut status = String::new();
        std::fs::File::open(format!("/proc/{}/status", self.child.id()))
            .and_then(|mut f| f.read_to_string(&mut status))
            .ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
    }

    /// Wait for the server to exit after a SHUTDOWN, killing it after
    /// `timeout`. `Ok` for a clean exit in time.
    pub fn finish(mut self, timeout: Duration) -> Result<(), String> {
        let watchdog = Watchdog::arm(self.child.id(), timeout);
        let exited = wait_exited(self.child.id());
        let fired = watchdog.disarm();
        let status = exited.and_then(|()| self.child.wait());
        match status {
            Ok(s) if s.success() && !fired => Ok(()),
            Ok(_) if fired => Err("server did not exit after SHUTDOWN".into()),
            Ok(s) => Err(format!("server exited with {s}")),
            Err(e) => Err(format!("waiting for the server: {e}")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
