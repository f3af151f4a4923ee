//! Result digests: what the correctness pass compares between engines,
//! between a table and its model, and against `workloads.lock`.

use jackpine_sqlmini::ResultSet;
use jackpine_storage::Value;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `state`.
pub fn fnv1a_from(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, b| (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// One result row in a form two correct engines agree on: floats to nine
/// significant digits (an R-tree and a grid feed a SUM its terms in
/// different orders), geometries as WKB, everything tagged.
fn canonical_row(row: &[Value], out: &mut Vec<u8>) {
    for v in row {
        match v {
            Value::Float(f) => out.extend_from_slice(format!("f{f:.8e};").as_bytes()),
            other => other.encode(out),
        }
    }
}

/// Row count and order-independent digest of a result set.
pub fn result_digest(rs: &ResultSet) -> (usize, u64) {
    let mut rows: Vec<Vec<u8>> = rs
        .rows
        .iter()
        .map(|r| {
            let mut bytes = Vec::new();
            canonical_row(r, &mut bytes);
            bytes
        })
        .collect();
    rows.sort_unstable();
    let digest = rows.iter().fold(FNV_OFFSET, |h, r| fnv1a_from(fnv1a_from(h, r), b"\n"));
    (rs.rows.len(), digest)
}

/// Order-independent digest of a table given the digest of each row.
pub fn table_digest(mut row_digests: Vec<u64>) -> u64 {
    row_digests.sort_unstable();
    row_digests.iter().fold(FNV_OFFSET, |h, d| fnv1a_from(h, &d.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn result_digest_ignores_row_order_and_float_noise() {
        let a = ResultSet {
            columns: vec!["x".into()],
            rows: vec![vec![Value::Float(0.1 + 0.2)], vec![Value::Int(7)]],
        };
        let b = ResultSet {
            columns: vec!["x".into()],
            rows: vec![vec![Value::Int(7)], vec![Value::Float(0.3)]],
        };
        assert_eq!(result_digest(&a), result_digest(&b));
        let c = ResultSet { columns: vec!["x".into()], rows: vec![vec![Value::Int(8)]] };
        assert_ne!(result_digest(&a).1, result_digest(&c).1);
    }
}
