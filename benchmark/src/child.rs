//! The `tsql --serve` child process: spawned on a fresh directory with the
//! shipped defaults, an OS-assigned port (or a socket file of its own), and
//! no `TEMPORAL_*` variable in its environment; killed (and waited for)
//! when dropped, panics included.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::workloads::Transport;

pub struct Server {
    child: Child,
    pub addr: String,
    pub dir: PathBuf,
}

impl Server {
    /// Start `tsql --serve <dir> --listen <addr>` — `127.0.0.1:0`, or a
    /// socket file beside `dir` — and wait until it reports the address it
    /// bound. `dir` may hold a database already (the server then recovers
    /// it before listening).
    pub fn spawn(tsql: &Path, dir: &Path, transport: Transport) -> Result<Server, String> {
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        // stderr goes to a file beside the database directory (not in it,
        // so it never counts as stored bytes); the bound address is read
        // back from there.
        let log_path = dir.with_extension("log");
        let log = fs::File::create(&log_path).map_err(|e| format!("create server log: {e}"))?;
        let listen = match transport {
            Transport::Tcp => "127.0.0.1:0".to_string(),
            Transport::Unix => dir.with_extension("sock").display().to_string(),
        };
        let mut cmd = Command::new(tsql);
        cmd.arg("--serve")
            .arg(dir)
            .args(["--listen", &listen])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("TEMPORAL_") {
                cmd.env_remove(key);
            }
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", tsql.display()))?;
        let mut server = Server {
            child,
            addr: String::new(),
            dir: dir.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let text = fs::read_to_string(&log_path).unwrap_or_default();
            // "serving <dir> (<n> tables) on <addr>; one session per connection"
            if let Some(addr) = text
                .lines()
                .find_map(|l| l.split_once(") on ")?.1.split_once(';'))
            {
                server.addr = addr.0.to_string();
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("tsql exited early ({status}): {}", text.trim()));
            }
            if Instant::now() > deadline {
                return Err(format!("tsql did not start listening: {}", text.trim()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident set size of the server so far (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// SIGKILL the server and wait for it: no shutdown code runs, so the
    /// directory is left as a crash would leave it (with the operating
    /// system's cache intact — power loss is `tests/crash_matrix.rs`' job).
    pub fn kill(mut self) -> PathBuf {
        self.stop();
        self.dir.clone()
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bytes stored under `dir` (flat: the database keeps no subdirectories).
pub fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
