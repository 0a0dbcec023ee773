//! `rds` — the command-line entry point.

use std::io::{self, Write};

/// Stdout for a reader that may stop early (`rds plan ... | head -1`):
/// once a write finds the pipe closed, the rest of the output is
/// discarded. The command still runs to its end, so its gates still
/// decide the exit code and `--metrics`/`--trace-out` are still written.
struct ClosedPipeIsEnd<W> {
    inner: W,
    closed: bool,
}

impl<W: Write> Write for ClosedPipeIsEnd<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if !self.closed {
            match self.inner.write(buf) {
                Err(e) if e.kind() == io::ErrorKind::BrokenPipe => self.closed = true,
                r => return r,
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.closed {
            match self.inner.flush() {
                Err(e) if e.kind() == io::ErrorKind::BrokenPipe => self.closed = true,
                r => return r,
            }
        }
        Ok(())
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = ClosedPipeIsEnd {
        inner: io::stdout(),
        closed: false,
    };
    if let Err(e) = rds_cli::run(&argv, &mut stdout) {
        // Usage mistakes get a friendly pointer and their own exit code;
        // everything else is a runtime failure.
        if let Some(arg_err) = e.downcast_ref::<rds_cli::ArgError>() {
            eprintln!("error: {arg_err}");
            eprintln!("try `rds help` for the full option list");
            std::process::exit(2);
        }
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
