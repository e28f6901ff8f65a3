//! Process hygiene: CPU pinning, the `hoplited` child guard, scratch
//! directories, and the `/proc` counters read from the child.

use std::fs;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// How load and server share the host's CPUs.
#[derive(Clone, Debug)]
pub struct CpuSplit {
    /// `taskset -c` list for the server child, or `None` when the host
    /// has one CPU and nothing is pinned.
    pub server: Option<String>,
    /// The CPU the load generator runs on, when pinned.
    pub load: Option<usize>,
}

impl CpuSplit {
    pub fn describe(&self) -> String {
        match (&self.server, self.load) {
            (Some(s), Some(d)) => format!("server on CPU {s}, load on CPU {d}"),
            _ => "single CPU, unpinned".to_string(),
        }
    }
}

/// Pins this (single-threaded) process to the last CPU it may run on
/// and reserves the others for the server. Pinning keeps run-to-run
/// latency from depending on where the scheduler puts each thread; a
/// host with two or more CPUs where `taskset` is missing is an error,
/// never a silently unpinned run.
pub fn pin_load() -> Result<CpuSplit, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list in /proc/self/status")?
        .trim()
        .to_string();
    let cpus = parse_cpu_list(&list)?;
    let Some((&load, server)) = cpus.split_last() else {
        return Err(format!("empty CPU list {list:?}"));
    };
    if server.is_empty() {
        return Ok(CpuSplit {
            server: None,
            load: None,
        });
    }
    let out = Command::new("taskset")
        .args(["-pc", &load.to_string(), &std::process::id().to_string()])
        .stdout(Stdio::null())
        .output()
        .map_err(|e| {
            format!("taskset is required to pin the load generator on a multi-CPU host: {e}")
        })?;
    if !out.status.success() {
        return Err(format!(
            "taskset -pc {load} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let server = server
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",");
    Ok(CpuSplit {
        server: Some(server),
        load: Some(load),
    })
}

/// Parses a kernel CPU list such as `0-3,6`.
fn parse_cpu_list(list: &str) -> Result<Vec<usize>, String> {
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let bad = || format!("bad CPU list {list:?}");
        match part.split_once('-') {
            Some((a, b)) => {
                let (a, b): (usize, usize) =
                    (a.parse().map_err(|_| bad())?, b.parse().map_err(|_| bad())?);
                cpus.extend(a..=b);
            }
            None => cpus.push(part.parse().map_err(|_| bad())?),
        }
    }
    Ok(cpus)
}

/// A directory removed, with everything in it, when the guard drops —
/// on every exit path, panics included.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn create(path: PathBuf) -> Result<ScratchDir, String> {
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// A running `hoplited serve` child. Dropping the guard SIGKILLs the
/// child and reaps it, so no exit path — error return or panic — leaves
/// a daemon behind; the child also gets SIGKILL from the kernel if this
/// process dies first.
pub struct Server {
    child: Child,
    /// Held open so the child's later stdout writes never hit a closed
    /// pipe.
    _stdout: Option<BufReader<ChildStdout>>,
    pub addr: SocketAddr,
    pub pid: u32,
    log: PathBuf,
}

impl Server {
    /// Starts `bin serve <args>` (under `taskset -c <cpus>` when given)
    /// and waits for its "listening on" line. The child's stderr goes
    /// to `log`.
    pub fn spawn(
        bin: &Path,
        cpus: Option<&str>,
        args: &[String],
        log: &Path,
    ) -> Result<Server, String> {
        let mut cmd = match cpus {
            Some(list) => {
                let mut c = Command::new("taskset");
                c.arg("-c").arg(list).arg(bin);
                c
            }
            None => Command::new(bin),
        };
        let stderr = fs::File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        cmd.arg("serve")
            .args(args)
            .env("HOPLITE_LOG", "warn")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr);
        // SAFETY: the closure runs in the forked child before exec and
        // only calls prctl(2), which is async-signal-safe; it touches
        // no memory of the parent.
        unsafe {
            cmd.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) != 0 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut guard = Server {
            pid: child.id(),
            child,
            _stdout: None,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            log: log.to_path_buf(),
        };
        let mut stdout = BufReader::new(guard.child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        guard._stdout = Some(stdout);
        match read {
            Ok(n) if n > 0 => {}
            _ => return Err(guard.failure("exited before listening")),
        }
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| guard.failure(&format!("unexpected first line {line:?}")))?;
        guard.addr = addr;
        Ok(guard)
    }

    /// An error naming what went wrong plus the tail of the child's
    /// log.
    pub fn failure(&self, what: &str) -> String {
        let log = fs::read_to_string(&self.log).unwrap_or_default();
        let tail: Vec<&str> = log.lines().rev().take(5).collect();
        let tail: Vec<&str> = tail.into_iter().rev().collect();
        format!(
            "hoplited (pid {}) {what}; log tail: {}",
            self.pid,
            tail.join(" | ")
        )
    }

    /// SIGKILLs the child and waits for it. Idempotent.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Child CPU time (user + system, every thread, live or exited) in
    /// microseconds.
    pub fn cpu_us(&self) -> Result<u64, String> {
        let stat = fs::read_to_string(format!("/proc/{}/stat", self.pid))
            .map_err(|e| format!("read /proc/{}/stat: {e}", self.pid))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0)
        };
        // /proc reports in USER_HZ, which is 100 on every Linux ABI.
        Ok((ticks(11) + ticks(12)) * 10_000)
    }

    /// Peak resident set (`VmHWM`) in bytes.
    pub fn peak_rss_bytes(&self) -> Result<u64, String> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.pid))
            .map_err(|e| format!("read /proc/{}/status: {e}", self.pid))?;
        status_field(&status, "VmHWM:")
            .map(|kib| kib * 1024)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// Voluntary and involuntary context switches summed over the
    /// child's live threads.
    pub fn context_switches(&self) -> (u64, u64) {
        let mut totals = (0, 0);
        let Ok(tasks) = fs::read_dir(format!("/proc/{}/task", self.pid)) else {
            return totals;
        };
        for task in tasks.flatten() {
            let Ok(status) = fs::read_to_string(task.path().join("status")) else {
                continue;
            };
            totals.0 += status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0);
            totals.1 += status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
        }
        totals
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1").unwrap(), vec![0, 1]);
        assert_eq!(parse_cpu_list("0,2-4,7").unwrap(), vec![0, 2, 3, 4, 7]);
        assert!(parse_cpu_list("x").is_err());
    }

    #[test]
    fn scratch_dir_is_removed_on_panic() {
        let exe = std::env::current_exe().unwrap();
        let path = exe.with_file_name(format!("hopbench-guard-{}", std::process::id()));
        let p = path.clone();
        let result = std::panic::catch_unwind(move || {
            let dir = ScratchDir::create(p).unwrap();
            fs::write(dir.path().join("f"), b"x").unwrap();
            panic!("probe");
        });
        assert!(result.is_err());
        assert!(!path.exists());
    }
}
