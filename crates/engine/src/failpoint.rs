//! Fault injection for the durability tests: an [`std::io::Write`]
//! wrapper that simulates a crash (stop writing at a byte offset) or bit
//! rot (flip one bit at a byte offset) in whatever stream passes through
//! it.
//!
//! The durability suite drives snapshot and WAL byte streams through a
//! [`FailpointFile`] at *every* offset and asserts that
//! [`crate::SpatialDb::open`] / [`crate::SpatialDb::open_durable`] come
//! back with either the pre-crash or the post-crash consistent state —
//! never a panic, an OOM-sized allocation, or a silently short table.

use std::io::{Seek, SeekFrom, Write};

/// The fault a [`FailpointFile`] injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failpoint {
    /// Write bytes `0..offset` faithfully, then fail every further write
    /// with an I/O error — the moment the process "crashed".
    Truncate {
        /// Byte offset at which the stream is cut.
        offset: u64,
    },
    /// Flip one bit of the byte at `offset` and otherwise pass every
    /// write through untouched — silent media corruption.
    BitFlip {
        /// Byte offset of the corrupted byte.
        offset: u64,
        /// Bit index (0–7) to flip within that byte.
        bit: u8,
    },
}

/// A writer that injects a single configured fault into the stream.
#[derive(Debug)]
pub struct FailpointFile<W: Write> {
    inner: W,
    failpoint: Failpoint,
    written: u64,
}

impl<W: Write> FailpointFile<W> {
    /// Wraps `inner`, arming the given failpoint.
    pub fn new(inner: W, failpoint: Failpoint) -> FailpointFile<W> {
        FailpointFile { inner, failpoint, written: 0 }
    }

    /// Bytes successfully passed to the inner writer so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FailpointFile<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self.failpoint {
            Failpoint::Truncate { offset } => {
                if self.written >= offset {
                    return Err(std::io::Error::other(format!(
                        "failpoint: simulated crash at byte {offset}"
                    )));
                }
                let room = (offset - self.written) as usize;
                let take = buf.len().min(room);
                let n = self.inner.write(&buf[..take])?;
                self.written += n as u64;
                Ok(n)
            }
            Failpoint::BitFlip { offset, bit } => {
                let start = self.written;
                let end = start + buf.len() as u64;
                let n = if (start..end).contains(&offset) {
                    let mut corrupted = buf.to_vec();
                    corrupted[(offset - start) as usize] ^= 1 << (bit & 7);
                    // write_all so the flipped byte cannot be split from
                    // its buffer by a short write.
                    self.inner.write_all(&corrupted)?;
                    corrupted.len()
                } else {
                    self.inner.write(buf)?
                };
                self.written += n as u64;
                Ok(n)
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Seeking moves the inner writer and nothing else: fault offsets count
/// bytes in the order they are *written*, so a header field the snapshot
/// writer patches after seeking back is the tail of the stream, and a
/// crash can be injected into the patch like anywhere else.
impl<W: Write + Seek> Seek for FailpointFile<W> {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.inner.seek(pos)
    }
}

/// The result of pushing `bytes` through a failpoint into an in-memory
/// buffer — the exact content a real file would hold after the fault. A
/// hook for the truncation and bit-flip sweeps of `tests/durability.rs`.
pub fn apply_failpoint(bytes: &[u8], failpoint: Failpoint) -> Vec<u8> {
    let mut fp = FailpointFile::new(Vec::new(), failpoint);
    // A torn write errors part-way; whatever landed before the error is
    // the surviving file content.
    let _ = fp.write_all(bytes);
    fp.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_cuts_exactly_at_offset() {
        let data: Vec<u8> = (0..=255).collect();
        for offset in [0u64, 1, 7, 100, 255] {
            let got = apply_failpoint(&data, Failpoint::Truncate { offset });
            assert_eq!(got, data[..offset as usize]);
        }
        // Offset past the end: nothing fails.
        let got = apply_failpoint(&data, Failpoint::Truncate { offset: 10_000 });
        assert_eq!(got, data);
    }

    #[test]
    fn bitflip_flips_one_bit() {
        let data = vec![0u8; 32];
        let got = apply_failpoint(&data, Failpoint::BitFlip { offset: 9, bit: 3 });
        assert_eq!(got.len(), 32);
        assert_eq!(got[9], 1 << 3);
        assert!(got.iter().enumerate().all(|(i, &b)| i == 9 || b == 0));
    }

    #[test]
    fn faults_count_bytes_in_write_order_across_a_seek() {
        // Eight bytes, then a two-byte patch at offset 2: the patch is
        // stream bytes 8 and 9, wherever it lands in the file.
        let run = |failpoint| {
            let mut fp = FailpointFile::new(std::io::Cursor::new(Vec::new()), failpoint);
            let result = fp
                .write_all(&[0u8; 8])
                .and_then(|()| fp.seek(SeekFrom::Start(2)).map(|_| ()))
                .and_then(|()| fp.write_all(&[7, 7]));
            (result.is_ok(), fp.into_inner().into_inner())
        };
        assert_eq!(run(Failpoint::Truncate { offset: 9 }), (false, vec![0, 0, 7, 0, 0, 0, 0, 0]));
        assert_eq!(run(Failpoint::Truncate { offset: 10 }), (true, vec![0, 0, 7, 7, 0, 0, 0, 0]));
        assert_eq!(
            run(Failpoint::BitFlip { offset: 9, bit: 0 }),
            (true, vec![0, 0, 7, 6, 0, 0, 0, 0])
        );
    }

    #[test]
    fn bitflip_across_chunked_writes() {
        let data: Vec<u8> = (0..64).collect();
        let mut fp = FailpointFile::new(Vec::new(), Failpoint::BitFlip { offset: 33, bit: 0 });
        for chunk in data.chunks(5) {
            fp.write_all(chunk).unwrap();
        }
        let got = fp.into_inner();
        assert_eq!(got[33], 33 ^ 1);
        assert_eq!(got.len(), 64);
    }
}
