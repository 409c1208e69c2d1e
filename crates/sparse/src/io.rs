//! Edge-list IO.
//!
//! The paper's datasets ship as SNAP-style edge lists; this module reads and
//! writes that format. The workspace persists no other graph file: the
//! dataset registry generates its analogues in memory, and the serving
//! layer's snapshots carry their graphs in their own codec.

use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

use crate::coo::Coo;
use crate::csr::Csr;

/// Parse a SNAP-style whitespace-separated edge list (`# comment` lines
/// skipped). Vertices are remapped densely in order of first appearance;
/// the graph is stored symmetrically with unit weights.
pub fn read_edge_list(reader: impl BufRead) -> io::Result<Csr> {
    let mut map: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for line in reader.lines() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let (a, b) = match (it.next(), it.next()) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad edge line: {t:?}"),
                ))
            }
        };
        let parse = |s: &str| -> io::Result<u64> {
            s.parse()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}: {s:?}")))
        };
        let (a, b) = (parse(a)?, parse(b)?);
        let next = map.len() as u32;
        let ia = *map.entry(a).or_insert(next);
        let next = map.len() as u32;
        let ib = *map.entry(b).or_insert(next);
        if ia != ib {
            edges.push((ia, ib));
        }
    }
    let n = map.len();
    let mut coo = Coo::new(n, n);
    for (u, v) in edges {
        coo.push(u, v, 1.0);
        coo.push(v, u, 1.0);
    }
    let mut c = coo;
    c.deduplicate();
    c.vals.iter_mut().for_each(|v| *v = 1.0);
    let csr = c.to_csr();
    // Every ingest path validates before the matrix reaches a kernel:
    // a defect here means the reader (not the caller) is broken, but the
    // contract is the same — no unvalidated CSR leaves this module.
    csr.validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(csr)
}

/// Read an edge list from a file path.
pub fn read_edge_list_file(path: impl AsRef<Path>) -> io::Result<Csr> {
    let f = std::fs::File::open(path)?;
    read_edge_list(io::BufReader::new(f))
}

/// Write a CSR matrix's upper-triangular edges as an edge list.
pub fn write_edge_list(csr: &Csr, writer: impl Write) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    for r in 0..csr.nrows {
        for &c in csr.row_cols(r) {
            if (c as usize) >= r {
                writeln!(w, "{r}\t{c}")?;
            }
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn edge_list_roundtrip() {
        let g = gen::erdos_renyi(50, 120, 3);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(back.nnz(), g.nnz());
        assert_eq!(back.nrows, g.nrows);
    }

    #[test]
    fn edge_list_skips_comments_and_self_loops() {
        let text = "# comment\n% other comment\n0 1\n1 1\n1 2\n";
        let g = read_edge_list(io::BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(g.nrows, 3);
        assert_eq!(g.nnz(), 4); // two undirected edges, stored both ways
    }

    #[test]
    fn edge_list_rejects_garbage() {
        let text = "0 x\n";
        assert!(read_edge_list(io::BufReader::new(text.as_bytes())).is_err());
        let text = "0\n";
        assert!(read_edge_list(io::BufReader::new(text.as_bytes())).is_err());
    }
}
