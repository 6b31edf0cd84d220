//! Corpus (de)serialization.
//!
//! Two formats, both dependency-free:
//!
//! * a line-oriented CSV (`id,x0,y0,x1,y1,...`) that is trivially
//!   inspectable and interoperable, and
//! * a compact little-endian binary codec (through [`crate::cursor`])
//!   for fast round-trips of large corpora (embeddings caches, benchmark
//!   fixtures).

use crate::cursor::{PutLe, Reader};
use crate::{Dataset, Point, Result, TrajError, Trajectory};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic header identifying the binary corpus format.
const MAGIC: &[u8; 8] = b"NTRAJv1\0";

/// Writes a dataset as CSV: one line per trajectory,
/// `id,x0,y0,x1,y1,...` with full-precision floats.
pub fn write_csv<W: Write>(ds: &Dataset, mut w: W) -> Result<()> {
    let mut line = String::new();
    for t in ds.trajectories() {
        line.clear();
        line.push_str(&t.id.to_string());
        for p in t.points() {
            line.push(',');
            line.push_str(&format_float(p.x));
            line.push(',');
            line.push_str(&format_float(p.y));
        }
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Reads a dataset from the CSV format written by [`write_csv`].
pub fn read_csv<R: Read>(r: R) -> Result<Dataset> {
    let reader = BufReader::new(r);
    let mut out = Vec::new();
    let mut lineno = 0usize;
    let mut buf = String::new();
    let mut reader = reader;
    loop {
        buf.clear();
        lineno += 1;
        if reader.read_line(&mut buf)? == 0 {
            break;
        }
        let line = buf.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split(',');
        let id: u64 = fields
            .next()
            .ok_or_else(|| parse_err(lineno, "missing id"))?
            .trim()
            .parse()
            .map_err(|e| parse_err(lineno, &format!("bad id: {e}")))?;
        let coords: Vec<f64> = fields
            .map(|f| {
                f.trim()
                    .parse::<f64>()
                    .map_err(|e| parse_err(lineno, &format!("bad coordinate: {e}")))
            })
            .collect::<Result<_>>()?;
        if !coords.len().is_multiple_of(2) {
            return Err(parse_err(lineno, "odd number of coordinates"));
        }
        let points = coords
            .chunks_exact(2)
            .map(|c| Point::new(c[0], c[1]))
            .collect();
        out.push(Trajectory::new(id, points).map_err(|e| parse_err(lineno, &e.to_string()))?);
    }
    Ok(Dataset::new(out))
}

/// Writes a dataset as CSV to a file path.
pub fn write_csv_file<P: AsRef<Path>>(ds: &Dataset, path: P) -> Result<()> {
    write_csv(ds, BufWriter::new(File::create(path)?))
}

/// Reads a CSV dataset from a file path.
pub fn read_csv_file<P: AsRef<Path>>(path: P) -> Result<Dataset> {
    read_csv(File::open(path)?)
}

/// Encodes a dataset into the compact binary format.
pub fn encode_binary(ds: &Dataset) -> Vec<u8> {
    let total_pts: usize = ds.trajectories().iter().map(Trajectory::len).sum();
    let mut buf = Vec::with_capacity(16 + ds.len() * 12 + total_pts * 16);
    buf.put_slice(MAGIC);
    buf.put_u64_le(ds.len() as u64);
    for t in ds.trajectories() {
        buf.put_u64_le(t.id);
        buf.put_u32_le(t.len() as u32);
        for p in t.points() {
            buf.put_f64_le(p.x);
            buf.put_f64_le(p.y);
        }
    }
    buf
}

/// Decodes a dataset from the binary format produced by [`encode_binary`].
pub fn decode_binary(data: &[u8]) -> Result<Dataset> {
    let mut r = Reader::new(data);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(parse_err(0, "bad magic header"));
    }
    let n = r.u64()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let id = r.u64()?;
        let len = r.u32()? as usize;
        let coords = r.f64s(len * 2)?;
        let points = coords
            .chunks_exact(2)
            .map(|c| Point::new(c[0], c[1]))
            .collect();
        out.push(Trajectory::new(id, points).map_err(|e| parse_err(0, &e.to_string()))?);
    }
    Ok(Dataset::new(out))
}

/// Writes the binary format to a file path.
pub fn write_binary_file<P: AsRef<Path>>(ds: &Dataset, path: P) -> Result<()> {
    let bytes = encode_binary(ds);
    let mut f = BufWriter::new(File::create(path)?);
    f.write_all(&bytes)?;
    Ok(())
}

/// Reads the binary format from a file path.
pub fn read_binary_file<P: AsRef<Path>>(path: P) -> Result<Dataset> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    decode_binary(&data)
}

fn parse_err(line: usize, msg: &str) -> TrajError {
    TrajError::Parse {
        line,
        msg: msg.to_string(),
    }
}

/// Formats a float compactly but loss-lessly for CSV round-trips.
fn format_float(v: f64) -> String {
    // Shortest representation that round-trips (Rust's Display for f64).
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GeolifeLikeGenerator;

    fn tiny_corpus() -> Dataset {
        GeolifeLikeGenerator {
            num_trajectories: 8,
            ..Default::default()
        }
        .generate(42)
    }

    #[test]
    fn csv_roundtrip() {
        let ds = tiny_corpus();
        let mut buf = Vec::new();
        write_csv(&ds, &mut buf).unwrap();
        let back = read_csv(&buf[..]).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn csv_skips_blank_and_comment_lines() {
        let text = "# header\n\n1,0,0,1,1\n";
        let ds = read_csv(text.as_bytes()).unwrap();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.get(0).unwrap().len(), 2);
    }

    #[test]
    fn csv_rejects_malformed() {
        assert!(read_csv("abc,0,0".as_bytes()).is_err()); // bad id
        assert!(read_csv("1,0,0,5".as_bytes()).is_err()); // odd coords
        assert!(read_csv("1,0,zzz".as_bytes()).is_err()); // bad float
    }

    #[test]
    fn binary_roundtrip() {
        let ds = tiny_corpus();
        let bytes = encode_binary(&ds);
        let back = decode_binary(&bytes).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn binary_rejects_corruption() {
        let ds = tiny_corpus();
        let bytes = encode_binary(&ds);
        assert!(decode_binary(&bytes[..4]).is_err());
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(decode_binary(&bad).is_err());
        // truncated tail
        assert!(decode_binary(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn file_roundtrips() {
        let ds = tiny_corpus();
        let dir = std::env::temp_dir().join("neutraj_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("corpus.csv");
        let bin = dir.join("corpus.bin");
        write_csv_file(&ds, &csv).unwrap();
        write_binary_file(&ds, &bin).unwrap();
        assert_eq!(read_csv_file(&csv).unwrap(), ds);
        assert_eq!(read_binary_file(&bin).unwrap(), ds);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
