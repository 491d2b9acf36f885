//! Driving `gaserved` as a separate process: listen mode for the
//! stream and closed-loop workloads, batch mode for `batch_heavy`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Worker threads every server runs with.
pub const SERVER_THREADS: usize = 2;

/// What a server process left behind when it exited.
#[derive(Debug, Clone, Default)]
pub struct ServerReport {
    /// The `BENCH_serve.json` it wrote.
    pub json: String,
    /// Its stderr summary.
    pub stderr: String,
    /// Its resident high-water mark (`VmHWM`), in MB.
    pub peak_rss_mb: f64,
}

impl ServerReport {
    /// A metric of the `BENCH_serve.json` report (0 when absent).
    pub fn metric(&self, key: &str) -> f64 {
        number_after(&self.json, &format!("\"{key}\":")).unwrap_or(0.0)
    }

    /// Lines the server answered without running them: parse failures
    /// plus every admission rejection, from the stderr summary.
    pub fn rejected_lines(&self) -> u64 {
        let mut n = 0.0;
        // Listen mode: "rejected {p}p/{q}q/{r}r, shed {s}, closed {c}".
        if let Some(at) = self.stderr.find("rejected ") {
            let rest = &self.stderr[at + "rejected ".len()..];
            for part in rest.split(['/', ',']).take(3) {
                n += number_after(part, "").unwrap_or(0.0);
            }
        }
        n += number_after(&self.stderr, "shed ").unwrap_or(0.0);
        n += number_after(&self.stderr, "closed ").unwrap_or(0.0);
        // Batch mode: "({ok} ok, {e} errors, {p} parse failures)".
        if let Some(at) = self.stderr.find(" parse failures") {
            let head = &self.stderr[..at];
            let start = head.rfind(' ').map_or(0, |i| i + 1);
            n += head[start..].parse::<f64>().unwrap_or(0.0);
        }
        n as u64
    }

    /// Σ per-job execution micros the server recorded, over `backends`.
    pub fn exec_micros(&self, backends: &[&str]) -> f64 {
        backends
            .iter()
            .map(|b| self.metric(&format!("{b}_jobs")) * self.metric(&format!("{b}_avg_us")))
            .sum()
    }
}

/// The number right after the first `key` in `text`.
pub fn number_after(text: &str, key: &str) -> Option<f64> {
    let at = text.find(key)? + key.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `VmHWM` of a live process, in MB; `None` once it has exited (or off
/// Linux). Unlike `ru_maxrss`, it counts only the process's own memory:
/// a child spawned with `vfork` inherits its parent's high-water mark in
/// `ru_maxrss` at `exec`.
fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    number_after(&status, "VmHWM:").map(|kb| kb / 1024.0)
}

/// How often a batch server's `VmHWM` is sampled while it runs.
const HWM_POLL: Duration = Duration::from_millis(5);

/// Block until `child` has exited. On Linux the child is left unreaped,
/// so its pid cannot be reused while a sampler may still read its
/// `/proc` entry; a later `Child::wait` reaps it.
#[cfg(target_os = "linux")]
fn wait_exited(child: &mut Child) -> Result<(), String> {
    extern "C" {
        fn waitid(idtype: i32, id: u32, info: *mut u64, options: i32) -> i32;
    }
    const P_PID: i32 = 1;
    const WEXITED: i32 = 4;
    const WNOWAIT: i32 = 0x0100_0000;
    let mut info = [0u64; 16];
    loop {
        // SAFETY: `info` is 128 writable bytes, the size of the
        // `siginfo_t` waitid fills; it writes nothing else.
        if unsafe { waitid(P_PID, child.id(), info.as_mut_ptr(), WEXITED | WNOWAIT) } == 0 {
            return Ok(());
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("waiting for gaserved: {e}"));
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn wait_exited(child: &mut Child) -> Result<(), String> {
    child
        .wait()
        .map(drop)
        .map_err(|e| format!("waiting for gaserved: {e}"))
}

fn read_report(out_dir: &Path) -> String {
    std::fs::read_to_string(out_dir.join("BENCH_serve.json")).unwrap_or_default()
}

/// Where a server writes its reports and batch files.
#[derive(Debug, Clone)]
pub struct Env {
    pub gaserved: PathBuf,
    pub out_dir: PathBuf,
}

impl Env {
    fn command(&self) -> Command {
        let mut cmd = Command::new(&self.gaserved);
        cmd.env("GA_BENCH_OUT", &self.out_dir)
            .arg("--threads")
            .arg(SERVER_THREADS.to_string());
        cmd
    }
}

/// A running `gaserved --listen`. It stops (drains) when its stdin
/// closes; [`Listener::stop`] does that and collects its report.
pub struct Listener {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Held open so the server never writes into a closed pipe.
    _stdout: Option<BufReader<ChildStdout>>,
    pub addr: SocketAddr,
    pub launched: Instant,
    out_dir: PathBuf,
}

impl Listener {
    pub fn start(env: &Env) -> Result<Listener, String> {
        let launched = Instant::now();
        let mut child = env
            .command()
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", env.gaserved.display()))?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        let mut stdout = child.stdout.take().map(BufReader::new);
        let announced = stdout.as_mut().map(|s| s.read_line(&mut line));
        let addr = match (announced, line.trim().strip_prefix("listening ")) {
            (Some(Ok(_)), Some(a)) => a.parse().map_err(|e| format!("bad address {a:?}: {e}")),
            _ => Err(format!("gaserved did not announce its address: {line:?}")),
        };
        let mut listener = Listener {
            child,
            stdin,
            _stdout: stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            launched,
            out_dir: env.out_dir.clone(),
        };
        match addr {
            Ok(a) => {
                listener.addr = a;
                Ok(listener)
            }
            Err(e) => {
                let _ = listener.stop();
                Err(e)
            }
        }
    }

    /// Close stdin (the drain signal), wait for the exit, and collect
    /// the report.
    pub fn stop(mut self) -> Result<ServerReport, String> {
        // Read while the server is alive; the drain serves nothing new.
        let peak_rss_mb = vm_hwm_mb(self.child.id()).unwrap_or(0.0);
        drop(self.stdin.take());
        let mut stderr = String::new();
        if let Some(mut e) = self.child.stderr.take() {
            let _ = e.read_to_string(&mut stderr);
        }
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for gaserved: {e}"))?;
        if !status.success() {
            return Err(format!("gaserved exited with {status}: {stderr}"));
        }
        Ok(ServerReport {
            json: read_report(&self.out_dir),
            stderr,
            peak_rss_mb,
        })
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        // Only reached on an error path: never leave a server behind.
        drop(self.stdin.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One connection to a listener, reading reply lines.
pub struct Conn {
    pub stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(Conn::from_stream(stream))
    }

    /// Wrap an already-connected socket (e.g. a clone for a reader).
    pub fn from_stream(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            start: 0,
        }
    }

    pub fn send(&mut self, lines: &str) -> Result<(), String> {
        self.stream
            .write_all(lines.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// One `read` call (honouring the socket's read timeout); complete
    /// lines are handed to `on_line`. Returns `Ok(false)` on a timeout,
    /// an error on EOF.
    pub fn read_some(&mut self, mut on_line: impl FnMut(&str)) -> Result<bool, String> {
        let mut chunk = [0u8; 1 << 14];
        let n = match self.stream.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(false)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => return Ok(false),
            Err(e) => return Err(format!("read: {e}")),
        };
        self.buf.extend_from_slice(&chunk[..n]);
        while let Some(nl) = self.buf[self.start..].iter().position(|&b| b == b'\n') {
            let end = self.start + nl;
            on_line(&String::from_utf8_lossy(&self.buf[self.start..end]));
            self.start = end + 1;
        }
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(true)
    }

    /// Block until `n` lines arrived, collecting them.
    pub fn read_lines(&mut self, n: usize) -> Result<Vec<String>, String> {
        self.stream
            .set_read_timeout(None)
            .map_err(|e| format!("timeout: {e}"))?;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            self.read_some(|l| out.push(l.to_string()))?;
        }
        Ok(out)
    }
}

/// Run one batch file through `gaserved --input … --out …`; returns the
/// result lines, the report, and the wall time from launch to exit. A
/// second thread samples the server's `VmHWM` every [`HWM_POLL`] while
/// it runs.
pub fn run_batch(
    env: &Env,
    name: &str,
    lines: &str,
) -> Result<(Vec<String>, ServerReport, f64), String> {
    let file = |ext: &str| env.out_dir.join(format!("{name}.{ext}"));
    let (input, output, errors) = (file("jsonl"), file("out.jsonl"), file("stderr"));
    std::fs::write(&input, lines).map_err(|e| format!("write {}: {e}", input.display()))?;
    let err_file =
        std::fs::File::create(&errors).map_err(|e| format!("create {}: {e}", errors.display()))?;
    let t = Instant::now();
    let mut child = env
        .command()
        .arg("--input")
        .arg(&input)
        .arg("--out")
        .arg(&output)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(err_file)
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", env.gaserved.display()))?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    let (exited, wall, peak_rss_mb) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0.0f64;
            while !done.load(Ordering::Acquire) {
                peak = peak.max(vm_hwm_mb(pid).unwrap_or(0.0));
                std::thread::sleep(HWM_POLL);
            }
            peak
        });
        let exited = wait_exited(&mut child);
        let wall = t.elapsed().as_secs_f64();
        done.store(true, Ordering::Release);
        (exited, wall, sampler.join().unwrap_or(0.0))
    });
    let status = child.wait();
    exited?;
    let status = status.map_err(|e| format!("waiting for gaserved: {e}"))?;
    let stderr = std::fs::read_to_string(&errors).unwrap_or_default();
    if !status.success() {
        return Err(format!("gaserved batch exited with {status}: {stderr}"));
    }
    let text =
        std::fs::read_to_string(&output).map_err(|e| format!("read {}: {e}", output.display()))?;
    let report = ServerReport {
        json: read_report(&env.out_dir),
        stderr,
        peak_rss_mb,
    };
    Ok((text.lines().map(str::to_string).collect(), report, wall))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejected_lines_parse_both_summaries() {
        let listen = ServerReport {
            json: String::new(),
            stderr:
                "gaserved: drained after 1.0s — 2 conns, 9 lines, 7 jobs (0 errors, 0 degraded), \
                     rejected 1p/2q/3r, shed 4, closed 5\n"
                    .into(),
            ..ServerReport::default()
        };
        assert_eq!(listen.rejected_lines(), 15);
        let batch = ServerReport {
            json: String::new(),
            stderr: "gaserved: 35 jobs (28 ok, 7 errors, 3 parse failures) in 0.1s\n".into(),
            ..ServerReport::default()
        };
        assert_eq!(batch.rejected_lines(), 3);
    }

    #[test]
    fn report_metrics_and_exec_micros() {
        let r = ServerReport {
            json: "{\"metrics\": {\"rtl_jobs\": 4,\n \"rtl_avg_us\": 2.5, \"swga_jobs\": 0}}"
                .into(),
            ..ServerReport::default()
        };
        assert_eq!(r.metric("rtl_jobs"), 4.0);
        assert_eq!(r.metric("missing"), 0.0);
        assert_eq!(r.exec_micros(&["rtl", "swga"]), 10.0);
    }
}
